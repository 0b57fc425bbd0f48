package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engines"
)

// loadedEngine builds a fresh named engine with a small seeded graph
// loaded, returning the engine and the base vertex pool.
func loadedEngine(t *testing.T, name string) (core.Engine, []core.ID) {
	t.Helper()
	e, err := engines.New(name)
	if err != nil {
		t.Fatal(err)
	}
	const nv, ne = 40, 80
	g := core.NewGraph(nv, ne)
	for i := 0; i < nv; i++ {
		g.AddVertex(core.Props{"n": core.I(int64(i))})
	}
	for i := 0; i < ne; i++ {
		g.AddEdge(i%nv, (i*7+3)%nv, "l", nil)
	}
	res, err := e.BulkLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	return e, res.VertexIDs
}

// runOnce executes one -ops run on a fresh engine, on a fresh fake
// clock, and returns the op log and the report.
func runOnce(t *testing.T, engine string, cfg Config) ([]byte, *Report) {
	t.Helper()
	e, base := loadedEngine(t, engine)
	defer e.Close()
	var logBuf bytes.Buffer
	cfg.Engine = e
	cfg.EngineName = engine
	cfg.Base = base
	cfg.OpLog = &logBuf
	rep, err := fakeRunner().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return logBuf.Bytes(), rep
}

// counts is the part of a report that a fixed op schedule determines:
// everything but the timings.
func counts(r *Report) string {
	s := fmt.Sprintf("ops=%d errors=%d", r.Ops, r.Errors)
	for _, o := range r.PerOp {
		s += fmt.Sprintf(" %s=%d/%d", o.Op, o.Count, o.Errors)
	}
	return s
}

// TestFrozenReplayByteIdentical is the deterministic-replay guarantee:
// same seed + mix + rate + op count ⇒ a byte-identical operation log
// and identical op, error and per-kind counts, run to run, on a fresh
// engine each time. The schedule is frozen further by a digest: each
// log is the one gdb-serve/v1's discrete-event simulator wrote for
// the same configuration, since every client draws the same stream.
func TestFrozenReplayByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		sha256 string
	}{
		{"closed-mixed", Config{Dataset: "tiny", Clients: 4, Ops: 200, Seed: 7,
			Mix: Mix{Read: 60, Traverse: 20, Insert: 10, Update: 10}},
			"ddaa918618849666dd69df90df2a12a133f6cc7742930dd3290783f79a19b71e"},
		{"open-read-only", Config{Dataset: "tiny", Clients: 3, Ops: 150, Seed: 11,
			Rate: 2e6, Mix: Mix{Read: 70, Traverse: 30}},
			"0290ae5a73c6bb96e4b0d587648450c2a5e1cac80cf626380668d98e53f54f11"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log1, rep1 := runOnce(t, "sqlg", tc.cfg)
			log2, rep2 := runOnce(t, "sqlg", tc.cfg)
			if !bytes.Equal(log1, log2) {
				t.Fatal("op logs differ between identical runs")
			}
			if c1, c2 := counts(rep1), counts(rep2); c1 != c2 {
				t.Fatalf("counts differ between identical runs: %s vs %s", c1, c2)
			}
			if want := int64(tc.cfg.Clients * tc.cfg.Ops); rep1.Ops != want || rep1.Errors != 0 {
				t.Fatalf("counts = %s, want %d ops and no errors", counts(rep1), want)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(log1)); got != tc.sha256 {
				t.Fatalf("op log digest = %s, want %s", got, tc.sha256)
			}
			// A different seed must actually change the schedule.
			tc.cfg.Seed++
			log3, _ := runOnce(t, "sqlg", tc.cfg)
			if bytes.Equal(log1, log3) {
				t.Fatal("op log insensitive to seed")
			}
		})
	}
}

// TestFrozenReportShape sanity-checks a closed-loop report on the fake
// clock, which moves only when the executor reads it: the run reads it
// once at each end and twice per operation, whatever the interleaving,
// so the duration is exact; every latency spans at least one read; the
// op count is clients × ops; per_op covers exactly the mixed kinds in
// order.
func TestFrozenReportShape(t *testing.T) {
	e, base := loadedEngine(t, "neo-1.9")
	defer e.Close()
	rep, err := fakeRunner().Run(Config{
		Engine: e, EngineName: "neo-1.9", Dataset: "tiny", Base: base,
		Clients: 4, Ops: 100, Seed: 3,
		Mix: Mix{Read: 50, Traverse: 20, Insert: 20, Update: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Loop != "closed" {
		t.Fatalf("header wrong: %+v", rep)
	}
	if rep.Ops != 400 {
		t.Fatalf("ops = %d, want 400", rep.Ops)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if want := int64((2*400 + 1) * time.Microsecond); rep.DurationNS != want {
		t.Fatalf("duration = %d, want %d", rep.DurationNS, want)
	}
	if l := rep.Latency; l.Min < int64(time.Microsecond) || l.Max > rep.DurationNS {
		t.Fatalf("closed-loop latency = %+v", l)
	}
	var kinds []string
	var n int64
	for _, o := range rep.PerOp {
		kinds = append(kinds, o.Op)
		n += o.Count
	}
	if strings.Join(kinds, ",") != "read,traverse,insert,update" {
		t.Fatalf("per_op order = %v", kinds)
	}
	if n != rep.Ops {
		t.Fatalf("per_op counts sum to %d, total %d", n, rep.Ops)
	}
}

// TestFrozenOpenLoopShowsQueueing drives arrivals faster than the fake
// clock's service rate: an open loop must not slow down with the
// server, so the backlog shows up as growing intended-start latency —
// the behaviour coordinated-omission-safe measurement exists to expose.
func TestFrozenOpenLoopShowsQueueing(t *testing.T) {
	e, base := loadedEngine(t, "sqlg")
	defer e.Close()
	// 2e6 ops/sec on one client = one arrival per 500ns mean, against an
	// operation that reads the fake clock twice (2µs): the queue grows
	// without bound.
	rep, err := fakeRunner().Run(Config{
		Engine: e, EngineName: "sqlg", Dataset: "tiny", Base: base,
		Clients: 1, Ops: 500, Seed: 5, Rate: 2e6,
		Mix: Mix{Read: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loop != "open" {
		t.Fatalf("loop = %q", rep.Loop)
	}
	if rep.Latency.Max < int64(20*time.Microsecond) {
		t.Fatalf("max latency %d shows no queueing", rep.Latency.Max)
	}
	if rep.Latency.P99 <= rep.Latency.P50 {
		t.Fatalf("flat latency distribution under overload: %+v", rep.Latency)
	}
}

// TestMutatingMixRequiresWriteGrant pins the capability gate: sparksee
// vetoes concurrent use, so a mutating mix is refused while a read-only
// mix runs (fully serialized under the guard).
func TestMutatingMixRequiresWriteGrant(t *testing.T) {
	e, base := loadedEngine(t, "sparksee")
	defer e.Close()
	_, err := Run(Config{
		Engine: e, EngineName: "sparksee", Dataset: "tiny", Base: base,
		Clients: 2, Ops: 10, Seed: 1,
		Mix: Mix{Read: 90, Insert: 10},
	})
	if err == nil || !strings.Contains(err.Error(), "ConcurrentWriter") {
		t.Fatalf("mutating mix on sparksee: err = %v", err)
	}
	rep, err := Run(Config{
		Engine: e, EngineName: "sparksee", Dataset: "tiny", Base: base,
		Clients: 2, Ops: 50, Seed: 1,
		Mix: Mix{Read: 70, Traverse: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 100 || rep.Errors != 0 {
		t.Fatalf("read-only run on sparksee: %+v", rep)
	}
}

// fakeClock is a deterministic injected clock for real-mode tests:
// every read advances time by a fixed step, and sleeping advances it by
// the requested amount.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(f.step)
	return f.t
}

func (f *fakeClock) since(t0 time.Time) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(f.step)
	return f.t.Sub(t0)
}

func (f *fakeClock) sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// fakeRunner returns a Runner on a fresh fakeClock that advances one
// microsecond per read.
func fakeRunner() *Runner {
	fc := &fakeClock{step: time.Microsecond}
	return &Runner{now: fc.now, since: fc.since, sleep: fc.sleep}
}

// TestRealModeOnInjectedClock exercises the goroutine executor without
// touching the wall clock: a fixed per-client op count on a mixed
// workload, with the op log covering every issued operation.
func TestRealModeOnInjectedClock(t *testing.T) {
	e, base := loadedEngine(t, "neo-3.0")
	defer e.Close()
	var logBuf bytes.Buffer
	rep, err := fakeRunner().Run(Config{
		Engine: e, EngineName: "neo-3.0", Dataset: "tiny", Base: base,
		Clients: 3, Ops: 40, Seed: 9, OpLog: &logBuf,
		Mix: Mix{Read: 50, Traverse: 20, Insert: 20, Update: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 120 || rep.Loop != "closed" {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.Throughput <= 0 || rep.DurationNS <= 0 {
		t.Fatalf("throughput %f over %dns", rep.Throughput, rep.DurationNS)
	}
	if n := bytes.Count(logBuf.Bytes(), []byte("\n")); n != 120 {
		t.Fatalf("op log has %d lines, want 120", n)
	}
	// Engine state must reflect the inserts: base plus one vertex per
	// insert op.
	var inserts int64
	for _, o := range rep.PerOp {
		if o.Op == "insert" {
			inserts = o.Count
		}
	}
	if inserts == 0 {
		t.Fatal("mix produced no inserts")
	}
	if n, _ := e.CountVertices(); n != int64(len(base))+inserts {
		t.Fatalf("vertices = %d, want %d base + %d inserts", n, len(base), inserts)
	}
}

// TestRealModeKeepsNoOpsWithoutLog: issued ops are kept only for the op
// log, so a run without one — a long -duration run in particular —
// does not grow with every operation it issues.
func TestRealModeKeepsNoOpsWithoutLog(t *testing.T) {
	e, base := loadedEngine(t, "sqlg")
	defer e.Close()
	clients, _ := fakeRunner().runReal(Config{Base: base, Clients: 3, Ops: 40, Seed: 9, Mix: DefaultMix}, core.Guard(e))
	for _, c := range clients {
		if c.ops != nil {
			t.Fatalf("client %d kept %d ops without an op log", c.id, len(c.ops))
		}
	}
}

// TestRealModeOpenLoopOnInjectedClock checks the open-loop scheduler
// sleeps to its intended arrivals and records intended-start latencies.
func TestRealModeOpenLoopOnInjectedClock(t *testing.T) {
	e, base := loadedEngine(t, "sqlg")
	defer e.Close()
	rep, err := fakeRunner().Run(Config{
		Engine: e, EngineName: "sqlg", Dataset: "tiny", Base: base,
		Clients: 2, Ops: 30, Seed: 4, Rate: 1000, // 1k ops/sec: far slower than the fake clock's service
		Mix: Mix{Read: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loop != "open" || rep.Ops != 60 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Latency.Min < 0 || rep.Latency.Max == 0 {
		t.Fatalf("latency summary: %+v", rep.Latency)
	}
}

func TestConfigValidation(t *testing.T) {
	e, base := loadedEngine(t, "sqlg")
	defer e.Close()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no-engine", Config{Base: base, Clients: 1, Ops: 1}, "no engine"},
		{"no-base", Config{Engine: e, Clients: 1, Ops: 1}, "base"},
		{"no-clients", Config{Engine: e, Base: base, Ops: 1}, "clients"},
		{"no-bound", Config{Engine: e, Base: base, Clients: 1}, "-ops or -duration"},
		{"neg-rate", Config{Engine: e, Base: base, Clients: 1, Ops: 1, Rate: -1}, "rate"},
		{"neg-weight", Config{Engine: e, Base: base, Clients: 1, Ops: 1, Mix: Mix{Read: -1, Traverse: 2}}, "negative weight"},
		// Wraps to a negative total that would panic in draw.
		{"mix-overflow", Config{Engine: e, Base: base, Clients: 1, Ops: 1, Mix: Mix{Read: math.MaxInt, Insert: 1}}, "sum past"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("read=60, traverse=20,insert=15,update=5")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Read: 60, Traverse: 20, Insert: 15, Update: 5}) {
		t.Fatalf("mix = %+v", m)
	}
	if m.String() != "read=60,traverse=20,insert=15,update=5" {
		t.Fatalf("String = %q", m.String())
	}
	if !m.Mutating() {
		t.Fatal("mutating mix not detected")
	}
	ro, _ := ParseMix("read=1")
	if ro.Mutating() {
		t.Fatal("read-only mix flagged mutating")
	}
	for _, bad := range []string{"read", "read=-1", "scan=5", "read=0,traverse=0", "",
		// Sums to 1 once wrapped, and would pass as read-only.
		"read=2,traverse=9223372036854775807,insert=9223372036854775807,update=1",
		"read=2147483647,update=1",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if m, err := ParseMix("read=2147483646,update=1"); err != nil || m.total() != math.MaxInt32 || !m.Mutating() {
		t.Fatalf("largest mix: %+v, %v", m, err)
	}
}

// FuzzParseMix: an accepted mix has a positive total of at most
// math.MaxInt32 that equals the unwrapped sum of its weights, is
// mutating exactly when it weighs inserts or updates, and round-trips
// through String.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"read=60, traverse=20,insert=15,update=5", "read=1", "update=3,update=0,read=1",
		"read=2,traverse=9223372036854775807,insert=9223372036854775807,update=1", "read=2147483646,update=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMix(s)
		if err != nil {
			return
		}
		sum := int64(m.Read) + int64(m.Traverse) + int64(m.Insert) + int64(m.Update)
		if tot := m.total(); tot <= 0 || tot > math.MaxInt32 || int64(tot) != sum {
			t.Fatalf("ParseMix(%q) = %+v: total %d, weights sum to %d", s, m, tot, sum)
		}
		if m.Mutating() != (int64(m.Insert)+int64(m.Update) > 0) {
			t.Fatalf("ParseMix(%q) = %+v: Mutating = %v", s, m, m.Mutating())
		}
		if back, err := ParseMix(m.String()); err != nil || back != m {
			t.Fatalf("ParseMix(%q) = %+v, but ParseMix(%q) = %+v, %v", s, m, m.String(), back, err)
		}
	})
}

// TestAllEnginesServeReadTraverse runs a short read+traverse workload
// on the fake clock on every registered configuration — the acceptance
// criterion that serving works across all seven engines (nine
// configurations), including the ConcurrentReader-vetoing one.
func TestAllEnginesServeReadTraverse(t *testing.T) {
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			e, base := loadedEngine(t, name)
			defer e.Close()
			rep, err := fakeRunner().Run(Config{
				Engine: e, EngineName: name, Dataset: "tiny", Base: base,
				Clients: 4, Ops: 50, Seed: 2,
				Mix: Mix{Read: 70, Traverse: 30},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ops != 200 || rep.Errors != 0 {
				t.Fatalf("%s: %+v", name, rep)
			}
			for _, q := range []int64{rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.P999} {
				if q <= 0 {
					t.Fatalf("%s: missing quantile in %+v", name, rep.Latency)
				}
			}
		})
	}
}

// TestMixedWorkloadOnGrantingEngines runs a mutating mix on every
// configuration that grants ConcurrentWriter — the second acceptance
// criterion — and verifies the engine absorbed the writes.
func TestMixedWorkloadOnGrantingEngines(t *testing.T) {
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			e, base := loadedEngine(t, name)
			defer e.Close()
			if !core.Guard(e).ConcurrentWrites() {
				t.Skipf("%s does not grant ConcurrentWriter", name)
			}
			rep, err := fakeRunner().Run(Config{
				Engine: e, EngineName: name, Dataset: "tiny", Base: base,
				Clients: 4, Ops: 60, Seed: 8,
				Mix: Mix{Read: 40, Traverse: 20, Insert: 25, Update: 15},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ops != 240 {
				t.Fatalf("%s: ops = %d", name, rep.Ops)
			}
			if rep.Errors != 0 {
				t.Fatalf("%s: %d errors", name, rep.Errors)
			}
			var inserts int64
			for _, o := range rep.PerOp {
				if o.Op == "insert" {
					inserts = o.Count
				}
			}
			if n, _ := e.CountVertices(); n != int64(len(base))+inserts {
				t.Fatalf("%s: vertices = %d, want %d+%d", name, n, len(base), inserts)
			}
		})
	}
}

// TestReportEncodeDeterministic double-encodes one report and compares
// bytes — a guard against map-backed fields sneaking into the schema.
func TestReportEncodeDeterministic(t *testing.T) {
	e, base := loadedEngine(t, "sqlg")
	defer e.Close()
	rep, err := fakeRunner().Run(Config{
		Engine: e, EngineName: "sqlg", Dataset: "tiny", Base: base,
		Clients: 2, Ops: 20, Seed: 6, Mix: DefaultMix,
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rep.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("report encoding unstable")
	}
	for _, field := range []string{`"schema"`, `"throughput_ops_per_sec"`, `"p999"`, `"per_op"`} {
		if !strings.Contains(a.String(), field) {
			t.Fatalf("report missing %s:\n%s", field, a.String())
		}
	}
}

// TestGuardedConcurrentServeRace is the -race companion for real mode:
// many clients on a mutating mix against a granting engine, plus the
// vetoing engine read-only — any locking hole in the serve path or the
// guard shows up under the detector.
func TestGuardedConcurrentServeRace(t *testing.T) {
	for _, tc := range []struct {
		engine string
		mix    Mix
	}{
		{"sqlg", Mix{Read: 40, Traverse: 20, Insert: 25, Update: 15}},
		{"sparksee", Mix{Read: 70, Traverse: 30}},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			e, base := loadedEngine(t, tc.engine)
			defer e.Close()
			rep, err := Run(Config{
				Engine: e, EngineName: tc.engine, Dataset: "tiny", Base: base,
				Clients: 8, Ops: 150, Seed: 13, Mix: tc.mix,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ops != 8*150 {
				t.Fatalf("ops = %d", rep.Ops)
			}
			if rep.Errors != 0 {
				t.Fatalf("%d errors: %s", rep.Errors, func() string {
					var b bytes.Buffer
					rep.Encode(&b)
					return b.String()
				}())
			}
		})
	}
}
