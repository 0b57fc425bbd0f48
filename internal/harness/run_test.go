package harness

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/engines/kit"
	"repro/internal/engines/sqlg"
	"repro/internal/workload"
)

func TestDepthSuffix(t *testing.T) {
	cases := map[int]string{2: "(d=2)", 5: "(d=5)", 10: "(d=10)", 15: "(d=15)"}
	for d, want := range cases {
		if got := depthSuffix(d); got != want {
			t.Errorf("depthSuffix(%d) = %q, want %q", d, got, want)
		}
	}
}

// TestBatchRetainsLastSuccessfulCount guards the fix for the batch
// counter: a failing iteration must not overwrite Count with its zero
// value — the batch reports the count of the last successful iteration.
func TestBatchRetainsLastSuccessfulCount(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchSize = 5
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := r.graph("frb-s")
	pg := NewParamGen(g, cfg.Seed)
	res := identityLoadResult(g)
	var calls int
	q := &workload.Query{
		Num: 34, Name: "QFAIL",
		Run: func(ctx context.Context, e core.Engine, p workload.Params) (workload.Result, error) {
			calls++
			if calls == 3 {
				return workload.Result{}, errors.New("synthetic mid-batch failure")
			}
			return workload.Result{Count: 7}, nil
		},
	}
	m := r.batch(nil, q, pg, res)
	if !m.Failed {
		t.Fatal("mid-batch failure not marked on the batch measurement")
	}
	if calls != 3 {
		t.Fatalf("batch ran %d iterations, want stop at 3", calls)
	}
	if m.Count != 7 {
		t.Fatalf("batch Count = %d, want 7 (last successful iteration)", m.Count)
	}
}

// TestBatchEnforcesTimeBudget guards the batch deadline: every
// iteration shares one context carrying the Timeout×BatchSize budget,
// so an iteration that stalls past it is cut off and classified as a
// timeout rather than hanging the cell.
func TestBatchEnforcesTimeBudget(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchSize = 2
	cfg.Timeout = 20 * time.Millisecond
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := r.graph("frb-s")
	pg := NewParamGen(g, cfg.Seed)
	res := identityLoadResult(g)
	q := &workload.Query{
		Num: 34, Name: "QSLOW",
		Run: func(ctx context.Context, e core.Engine, p workload.Params) (workload.Result, error) {
			<-ctx.Done()
			return workload.Result{}, ctx.Err()
		},
	}
	m := r.batch(nil, q, pg, res)
	if !m.TimedOut {
		t.Fatalf("stalled batch not classified as timeout: %+v", m)
	}
}

// TestTimedOutCountIsZero: a query that times out after partial
// progress exports Count 0, interactively and in a batch whose earlier
// iterations succeeded, so the export does not depend on how far the
// clock let it get.
func TestTimedOutCountIsZero(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchSize = 3
	cfg.Timeout = 20 * time.Millisecond
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := r.graph("frb-s")
	pg := NewParamGen(g, cfg.Seed)
	res := identityLoadResult(g)
	var calls int
	q := &workload.Query{
		Num: 34, Name: "QPARTIAL",
		Run: func(ctx context.Context, e core.Engine, p workload.Params) (workload.Result, error) {
			calls++
			if calls == 1 {
				return workload.Result{Count: 7}, nil
			}
			<-ctx.Done()
			return workload.Result{Count: 5}, core.ErrTimeout
		},
	}
	if m := r.batch(nil, q, pg, res); !m.TimedOut || m.Count != 0 {
		t.Fatalf("batch timed out after partial progress: TimedOut %v, Count %d; want true, 0", m.TimedOut, m.Count)
	}
	if m := r.timeQuery(q.Name, nil, q, pg.For(q, 0, res)); !m.TimedOut || m.Count != 0 {
		t.Fatalf("query timed out after partial progress: TimedOut %v, Count %d; want true, 0", m.TimedOut, m.Count)
	}
}

// frozenClock makes every recorded duration zero, so two runs of the
// same configuration export byte-identical JSON.
func frozenClock(r *Runner) {
	r.now = func() time.Time { return time.Time{} }
	r.since = func(time.Time) time.Duration { return 0 }
}

// TestParallelMatchesSequentialExport is the determinism contract of
// the worker pool: a parallel run exports byte-identical JSON to a
// sequential one on the same seed and config. Run under -race it also
// proves the shared graph cache and result assembly are race-free.
func TestParallelMatchesSequentialExport(t *testing.T) {
	run := func(workers int) []byte {
		cfg := tinyConfig()
		cfg.BatchSize = 2
		cfg.Workers = workers
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frozenClock(r)
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ExportJSON(res, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	par := run(8)
	if !bytes.Equal(seq, par) {
		seqLines := strings.Split(string(seq), "\n")
		parLines := strings.Split(string(par), "\n")
		for i := range seqLines {
			if i >= len(parLines) || seqLines[i] != parLines[i] {
				t.Fatalf("export diverges at line %d:\nworkers=1: %s\nworkers=8: %s",
					i+1, seqLines[i], parLines[min(i, len(parLines)-1)])
			}
		}
		t.Fatalf("exports differ in length: %d vs %d bytes", len(seq), len(par))
	}
}

// failLoadEngine wraps a real engine but refuses to bulk-load —
// the canned fixture for DNF recording.
type failLoadEngine struct {
	core.Engine
}

func (f *failLoadEngine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	return nil, errors.New("synthetic load failure")
}

// TestLoadFailureRecordsDNF: an engine whose load fails must be
// recorded as DNF — failed LoadMeasurement plus failed cells — while
// every other engine's results are still collected, as in the paper.
func TestLoadFailureRecordsDNF(t *testing.T) {
	unregister := engines.Register("fail-load", func() core.Engine {
		return &failLoadEngine{sqlg.New()}
	})
	defer unregister()

	cfg := tinyConfig()
	cfg.Engines = []string{"fail-load", "sqlg"}
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.Workers = 4
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("load failure aborted the run: %v", err)
	}

	// Loads: one per engine, in config order, with the failure recorded.
	if len(res.Loads) != 2 {
		t.Fatalf("loads = %d, want 2", len(res.Loads))
	}
	if l := res.Loads[0]; l.Engine != "fail-load" || !l.Failed || l.Error == "" {
		t.Fatalf("failing engine's load not recorded as DNF: %+v", l)
	}
	if l := res.Loads[1]; l.Engine != "sqlg" || l.Failed {
		t.Fatalf("healthy engine's load disturbed: %+v", l)
	}

	// Every planned cell of the failing engine is a DNF measurement; the
	// healthy engine has the same number of cells, none of them DNF.
	perEngine := map[string]int{}
	for _, m := range res.Micro {
		perEngine[m.Engine]++
		switch m.Engine {
		case "fail-load":
			if !m.Failed || !strings.HasPrefix(m.Error, "DNF") {
				t.Fatalf("fail-load cell %s %s not DNF: %+v", m.Query, m.Mode, m)
			}
		case "sqlg":
			if strings.HasPrefix(m.Error, "DNF") {
				t.Fatalf("healthy engine cell %s %s marked DNF", m.Query, m.Mode)
			}
		}
	}
	if perEngine["fail-load"] != perEngine["sqlg"] || perEngine["fail-load"] == 0 {
		t.Fatalf("cell counts diverge: %v", perEngine)
	}

	// The indexed experiment records DNF cells too.
	var idxDNF int
	for _, m := range res.Indexed {
		if m.Engine == "fail-load" {
			if !m.Failed || !strings.HasPrefix(m.Error, "DNF") {
				t.Fatalf("indexed cell %s not DNF: %+v", m.Query, m)
			}
			idxDNF++
		}
	}
	if idxDNF != 2 {
		t.Fatalf("indexed DNF cells = %d, want 2 (Q11(idx), Q5(idx))", idxDNF)
	}

	// DNF-aware consumers: the broken engine must not rank best in
	// Table 4's Load column, and the CSV export flags its Q1 row.
	if v := table4(t, res)["fail-load"]["Load"]; v != verdictWarn {
		t.Fatalf("Table 4 Load verdict for failing engine = %q, want warn", v)
	}
	var csvBuf bytes.Buffer
	if err := ExportCSV(res, &csvBuf); err != nil {
		t.Fatal(err)
	}
	var q1Row string
	for _, line := range strings.Split(csvBuf.String(), "\n") {
		if strings.HasPrefix(line, "fail-load,frb-s,Q1,") {
			q1Row = line
		}
	}
	if !strings.Contains(q1Row, ",true,") {
		t.Fatalf("CSV Q1 row for failing engine not flagged failed: %q", q1Row)
	}
}

// TestIsolationCloneMatchesReload: running the batch cells' queries on
// clones of the cell's load exports exactly what loading anew for each
// mutating query does. The reload run registers every engine wrapped in
// a struct that hides its Clone method; counting the engines each run
// constructs shows that the clone run took the clone path on every
// engine, and only in the batch cells.
func TestIsolationCloneMatchesReload(t *testing.T) {
	datasets := []string{"frb-s", "mico"}
	run := func(workers int, hide bool) ([]byte, int64) {
		var built atomic.Int64
		for _, name := range engines.Names() {
			ctor := engines.Constructor(name)
			if _, ok := ctor().(kit.Cloner); !ok {
				t.Fatalf("%s does not clone", name)
			}
			defer engines.Register(name, func() core.Engine {
				built.Add(1)
				if hide {
					return struct{ core.Engine }{ctor()}
				}
				return ctor()
			})()
		}
		cfg := tinyConfig()
		cfg.Engines = engines.Names()
		cfg.Datasets = datasets
		cfg.Scale = 0.002
		cfg.Timeout = time.Minute // no deadline may depend on the machine
		cfg.FrozenClock = true
		cfg.Workers = workers
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ExportJSON(res, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), built.Load()
	}
	mutating := 0
	for _, q := range workload.Queries() {
		if q.Mutates {
			mutating++
		}
	}
	for _, workers := range []int{1, 2} {
		cloned, clonedLoads := run(workers, false)
		reloaded, reloads := run(workers, true)
		if want := int64(mutating * len(engines.Names()) * len(datasets)); reloads-clonedLoads != want {
			t.Errorf("workers=%d: %d loads with clones, %d without: the batch cells' %d mutating queries should have cloned", workers, clonedLoads, reloads, want)
		}
		if !bytes.Equal(cloned, reloaded) {
			c, r := strings.Split(string(cloned), "\n"), strings.Split(string(reloaded), "\n")
			for i := range min(len(c), len(r)) {
				if c[i] != r[i] {
					t.Fatalf("workers=%d: export diverges at line %d:\ncloned:   %s\nreloaded: %s", workers, i+1, c[i], r[i])
				}
			}
			t.Fatalf("workers=%d: exports differ in length: %d vs %d bytes", workers, len(cloned), len(reloaded))
		}
	}
}
