package harness

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// tinyConfig keeps harness tests fast: two contrasting engines, two
// small datasets including ldbc (for the complex workload).
func tinyConfig() Config {
	return Config{Grid: Grid{
		Engines:   []string{"neo-1.9", "sqlg"},
		Datasets:  []string{"frb-s", "ldbc"},
		Scale:     0.001,
		Timeout:   3 * time.Second,
		BatchSize: 3,
		Seed:      7,
	}}
}

var (
	tinyOnce sync.Once
	tinyRes  *Results
	tinyErr  error
)

// runTiny executes (once per test binary) a full evaluation at tiny
// scale; several tests assert different views of the same run, as they
// would against one published result set.
func runTiny(t *testing.T) *Results {
	t.Helper()
	tinyOnce.Do(func() {
		r, err := NewRunner(tinyConfig())
		if err != nil {
			tinyErr = err
			return
		}
		tinyRes, tinyErr = r.Run()
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyRes
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Config{Grid: Grid{Engines: []string{"nope"}}}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := NewRunner(Config{Grid: Grid{Datasets: []string{"nope"}}}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300} {
		if _, err := NewRunner(Config{Grid: Grid{Scale: scale}}); err == nil {
			t.Fatalf("scale %v accepted", scale)
		}
	}
	r, err := NewRunner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().BatchSize != 10 || r.Config().Scale <= 0 {
		t.Fatalf("defaults not applied: %+v", r.Config())
	}
}

func TestRunProducesCompleteMeasurements(t *testing.T) {
	res := runTiny(t)
	cfg := tinyConfig()

	// Loads: one per engine × dataset, with space and raw size.
	if len(res.Loads) != len(cfg.Engines)*len(cfg.Datasets) {
		t.Fatalf("loads = %d", len(res.Loads))
	}
	for _, l := range res.Loads {
		if l.Space.Total <= 0 || l.RawJSON <= 0 {
			t.Fatalf("load %s/%s lacks space data: %+v", l.Engine, l.Dataset, l)
		}
	}

	// Micro: 33 plain queries + 4 depth-swept Q32 = 37 per mode per
	// engine per dataset.
	wantPerMode := 37 * len(cfg.Engines) * len(cfg.Datasets)
	var inter, batch int
	for _, m := range res.Micro {
		switch m.Mode {
		case ModeInteractive:
			inter++
		case ModeBatch:
			batch++
		}
	}
	if inter != wantPerMode || batch != wantPerMode {
		t.Fatalf("micro measurements: interactive=%d batch=%d, want %d each", inter, batch, wantPerMode)
	}

	// Stats for every dataset.
	if len(res.Stats) != len(cfg.Datasets) {
		t.Fatalf("stats = %d", len(res.Stats))
	}

	// Complex workload ran on ldbc for every engine.
	if len(res.Complex) != len(workload.ComplexQueries())*len(cfg.Engines) {
		t.Fatalf("complex = %d", len(res.Complex))
	}

	// Indexed Q11 ran for engines that support (or accept) indexes.
	if len(res.Indexed) == 0 {
		t.Fatal("no indexed measurements")
	}

	// Regression guard: the Neo4j-style engine completes every query at
	// this scale (the paper's "only system with zero timeouts"), in
	// both modes — a uniform batch failure here once indicated the
	// interactive run and batch iteration 0 sharing delete targets.
	for _, m := range res.Micro {
		if m.Engine == "neo-1.9" && (m.Failed || m.TimedOut) {
			t.Errorf("neo-1.9 %s %s %s failed: %s", m.Dataset, m.Query, m.Mode, m.Error)
		}
	}
}

func TestEnginesAgreeOnCounts(t *testing.T) {
	res := runTiny(t)
	// For every (dataset, query, mode) with no failures, all engines
	// must report the same result count — the cross-engine validity
	// check behind the paper's comparative claims.
	type k struct {
		ds, q string
		mode  Mode
	}
	counts := map[k]map[string]int64{}
	for _, m := range res.Micro {
		if m.TimedOut || m.Failed {
			continue
		}
		kk := k{m.Dataset, m.Query, m.Mode}
		if counts[kk] == nil {
			counts[kk] = map[string]int64{}
		}
		counts[kk][m.Engine] = m.Count
	}
	for kk, byEngine := range counts {
		var ref int64
		first := true
		for e, c := range byEngine {
			if first {
				ref, first = c, false
				continue
			}
			if c != ref {
				t.Errorf("%v: %s returned %d, others %d", kk, e, c, ref)
			}
		}
	}
}

func TestParamGenDisjointDeleteTargets(t *testing.T) {
	r, _ := NewRunner(tinyConfig())
	g, pg := r.graph("frb-s"), r.dataset("frb-s").pg
	res := identityLoadResult(g)
	q18 := workload.ByName("Q18")
	q19 := workload.ByName("Q19")
	seen := map[int64]bool{}
	for i := 0; i < 10; i++ {
		p := pg.For(q18, i, res)
		if seen[int64(p.V)] {
			t.Fatalf("Q18 iteration %d reuses vertex %d", i, p.V)
		}
		seen[int64(p.V)] = true
	}
	// Q19's edge pool must not collide across iterations either.
	seenE := map[int64]bool{}
	for i := 0; i < 10; i++ {
		p := pg.For(q19, i, res)
		if seenE[int64(p.E)] {
			t.Fatalf("Q19 iteration %d reuses edge %d", i, p.E)
		}
		seenE[int64(p.E)] = true
	}
	// Non-mutating queries keep a stable target across iterations.
	q23 := workload.ByName("Q23")
	p0 := pg.For(q23, 0, res)
	p5 := pg.For(q23, 5, res)
	if p0.V != p5.V {
		t.Fatal("read query target changed across iterations")
	}
}

// identityLoadResult maps dataset indexes to themselves, so parameter
// pool behaviour can be asserted without loading an engine.
func identityLoadResult(g *core.Graph) *core.LoadResult {
	res := &core.LoadResult{
		VertexIDs: make([]core.ID, g.NumVertices()),
		EdgeIDs:   make([]core.ID, g.NumEdges()),
	}
	for i := range res.VertexIDs {
		res.VertexIDs[i] = core.ID(i)
	}
	for i := range res.EdgeIDs {
		res.EdgeIDs[i] = core.ID(i)
	}
	return res
}
