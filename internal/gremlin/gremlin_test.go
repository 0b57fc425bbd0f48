package gremlin

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engines/neo"
	"repro/internal/engines/sparksee"
	"repro/internal/engines/sqlg"
	"repro/internal/race"
)

// testEngines returns one native and one hybrid engine, so every test
// runs against two very different physical layouts.
func testEngines() map[string]core.Engine {
	return map[string]core.Engine{
		"neo":  neo.New(neo.V19),
		"sqlg": sqlg.New(),
	}
}

// diamond builds:
//
//	a -x-> b -y-> d
//	a -y-> c -y-> d,  d -z-> a
func diamond(t *testing.T, e core.Engine) (a, b, c, d core.ID) {
	t.Helper()
	var err error
	if a, err = e.AddVertex(core.Props{"name": core.S("a"), "deg": core.I(3)}); err != nil {
		t.Fatal(err)
	}
	b, _ = e.AddVertex(core.Props{"name": core.S("b")})
	c, _ = e.AddVertex(core.Props{"name": core.S("c")})
	d, _ = e.AddVertex(core.Props{"name": core.S("d")})
	e.AddEdge(a, b, "x", core.Props{"w": core.I(1)})
	e.AddEdge(a, c, "y", nil)
	e.AddEdge(b, d, "y", nil)
	e.AddEdge(c, d, "y", nil)
	e.AddEdge(d, a, "z", nil)
	return
}

func sorted(ids []core.ID) []core.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func eq(a, b []core.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSourceStepsAndCounts(t *testing.T) {
	for name, e := range testEngines() {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			diamond(t, e)
			ctx := context.Background()
			g := New(e)
			if n, err := g.V().Count(ctx); err != nil || n != 4 {
				t.Fatalf("V count = %d, %v", n, err)
			}
			if n, err := g.E().Count(ctx); err != nil || n != 5 {
				t.Fatalf("E count = %d, %v", n, err)
			}
		})
	}
}

func TestHopsAndFilters(t *testing.T) {
	for name, e := range testEngines() {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			a, b, c, d := diamond(t, e)
			ctx := context.Background()
			g := New(e)

			out, err := g.VID(a).Out().IDs(ctx)
			if err != nil || !eq(sorted(out), sorted([]core.ID{b, c})) {
				t.Fatalf("out(a) = %v, %v", out, err)
			}
			outY, _ := g.VID(a).Out("y").IDs(ctx)
			if !eq(outY, []core.ID{c}) {
				t.Fatalf("out(a,y) = %v", outY)
			}
			in, _ := g.VID(d).In().IDs(ctx)
			if !eq(sorted(in), sorted([]core.ID{b, c})) {
				t.Fatalf("in(d) = %v", in)
			}
			both, _ := g.VID(a).Both().IDs(ctx)
			if len(both) != 3 {
				t.Fatalf("both(a) = %v", both)
			}
			two, _ := g.VID(a).Out().Out().Dedup().IDs(ctx)
			if !eq(two, []core.ID{d}) {
				t.Fatalf("out.out(a).dedup = %v", two)
			}
			named, _ := g.VHas("name", core.S("b")).IDs(ctx)
			if !eq(named, []core.ID{b}) {
				t.Fatalf("VHas(name,b) = %v", named)
			}
			heavy, _ := g.V().Has("deg", core.I(3)).IDs(ctx)
			if !eq(heavy, []core.ID{a}) {
				t.Fatalf("Has(deg,3) = %v", heavy)
			}
			we, _ := g.EHas("w", core.I(1)).Count(ctx)
			if we != 1 {
				t.Fatalf("EHas(w,1) = %d", we)
			}
			ys, _ := g.EHasLabel("y").Count(ctx)
			if ys != 3 {
				t.Fatalf("EHasLabel(y) = %d", ys)
			}
		})
	}
}

func TestEdgeStepsAndLabels(t *testing.T) {
	for name, e := range testEngines() {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			a, _, _, d := diamond(t, e)
			ctx := context.Background()
			g := New(e)
			ls, err := g.E().DistinctLabels(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(ls)
			if len(ls) != 3 || ls[0] != "x" || ls[1] != "y" || ls[2] != "z" {
				t.Fatalf("labels = %v", ls)
			}
			outLs, _ := g.VID(a).OutE().DistinctLabels(ctx)
			sort.Strings(outLs)
			if len(outLs) != 2 || outLs[0] != "x" || outLs[1] != "y" {
				t.Fatalf("outE labels = %v", outLs)
			}
			inV, _ := g.VID(a).OutE("x").InV().IDs(ctx)
			if len(inV) != 1 {
				t.Fatalf("outE.inV = %v", inV)
			}
			srcs, _ := g.VID(d).InE().OutV().Dedup().Count(ctx)
			if srcs != 2 {
				t.Fatalf("inE.outV = %d", srcs)
			}
		})
	}
}

func TestDegreeFilterAndStoreExcept(t *testing.T) {
	for name, e := range testEngines() {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			a, _, _, d := diamond(t, e)
			ctx := context.Background()
			g := New(e)
			big, err := g.V().DegreeAtLeast(core.DirBoth, 3).IDs(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !eq(sorted(big), sorted([]core.ID{a, d})) {
				t.Fatalf("degree>=3 = %v", big)
			}
			withIn, _ := g.V().DegreeAtLeast(core.DirIn, 1).Count(ctx)
			if withIn != 4 {
				t.Fatalf("with incoming = %d", withIn)
			}
			// Store the high-degree ids in a set, then Except drops them.
			set := map[core.ID]struct{}{}
			for _, id := range big {
				set[id] = struct{}{}
			}
			rest, _ := g.V().Except(set).IDs(ctx)
			if len(rest) != 2 || slices.Contains(rest, a) || slices.Contains(rest, d) {
				t.Fatalf("except = %v, set %v", rest, big)
			}
		})
	}
}

// pullCounter wraps an engine and counts the calls a traversal makes
// to its scan, expansion, existence, edge-end and degree surfaces, and
// every pull from the iterators they return (the last, empty pull
// included), so a test can see how far a traversal pulled.
type pullCounter struct {
	core.Engine
	calls, pulls int
}

func (p *pullCounter) count(it core.Iter[core.ID]) core.Iter[core.ID] {
	p.calls++
	return func() (core.ID, bool) {
		p.pulls++
		return it()
	}
}

func (p *pullCounter) Vertices() core.Iter[core.ID] { return p.count(p.Engine.Vertices()) }
func (p *pullCounter) Edges() core.Iter[core.ID]    { return p.count(p.Engine.Edges()) }
func (p *pullCounter) EdgesByLabel(l string) core.Iter[core.ID] {
	return p.count(p.Engine.EdgesByLabel(l))
}
func (p *pullCounter) Neighbors(id core.ID, d core.Direction, ls ...string) core.Iter[core.ID] {
	return p.count(p.Engine.Neighbors(id, d, ls...))
}
func (p *pullCounter) IncidentEdges(id core.ID, d core.Direction, ls ...string) core.Iter[core.ID] {
	return p.count(p.Engine.IncidentEdges(id, d, ls...))
}
func (p *pullCounter) HasVertex(id core.ID) bool { p.calls++; return p.Engine.HasVertex(id) }
func (p *pullCounter) HasEdge(id core.ID) bool   { p.calls++; return p.Engine.HasEdge(id) }
func (p *pullCounter) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	p.calls++
	return p.Engine.EdgeEnds(id)
}
func (p *pullCounter) Degree(id core.ID, d core.Direction) (int64, error) {
	p.calls++
	return p.Engine.Degree(id, d)
}

// TestEngineCallsAndPulls pins the engine calls and iterator pulls of
// plans through expansions, a limit and a sample barrier: lowering may
// change how elements move between steps, never what it asks of the
// engine.
func TestEngineCallsAndPulls(t *testing.T) {
	e := neo.New(neo.V19)
	defer e.Close()
	a, _, _, _ := diamond(t, e)
	ctx := context.Background()
	for _, tc := range []struct {
		name         string
		build        func(G) *Traversal
		n            int64
		calls, pulls int
	}{
		{"V().Limit(0)", func(g G) *Traversal { return g.V().Limit(0) }, 0, 1, 0},
		{"V().Out().Limit(3)", func(g G) *Traversal { return g.V().Out().Limit(3) }, 3, 3, 6},
		{"V(a).Out().Out().Dedup()", func(g G) *Traversal { return g.VID(a).Out().Out().Dedup() }, 1, 4, 7},
		{"E().HasLabel(y).InV()", func(g G) *Traversal { return g.E().HasLabel("y").InV() }, 3, 4, 4},
		{"V().DegreeAtLeast(both,3).Sample(2,1)", func(g G) *Traversal {
			return g.V().DegreeAtLeast(core.DirBoth, 3).Sample(2, 1)
		}, 2, 5, 5},
		{"V().Sample(3,1).Out().Limit(2)", func(g G) *Traversal { return g.V().Sample(3, 1).Out().Limit(2) }, 2, 2, 7},
	} {
		pc := &pullCounter{Engine: e}
		n, err := tc.build(New(pc)).Count(ctx)
		if err != nil || n != tc.n || pc.calls != tc.calls || pc.pulls != tc.pulls {
			t.Errorf("%s: count %d (err %v), %d calls, %d pulls; want %d, %d calls, %d pulls",
				tc.name, n, err, pc.calls, pc.pulls, tc.n, tc.calls, tc.pulls)
		}
	}
}

func TestLimitShortCircuitsAndValues(t *testing.T) {
	e := neo.New(neo.V19)
	defer e.Close()
	diamond(t, e)
	ctx := context.Background()
	pc := &pullCounter{Engine: e}
	g := New(pc)
	if n, _ := g.V().Limit(2).Count(ctx); n != 2 || pc.pulls != 2 {
		t.Fatalf("V().Limit(2): count %d after %d pulls, want 2 after 2", n, pc.pulls)
	}
	// Three "y" edges exist; the fused label source stops after one.
	pc.pulls = 0
	if n, _ := g.E().HasLabel("y").Limit(1).Count(ctx); n != 1 || pc.pulls != 1 {
		t.Fatalf("E().HasLabel(y).Limit(1): count %d after %d pulls, want 1 after 1", n, pc.pulls)
	}
	if n, _ := g.VHas("name", core.S("zzz")).Limit(1).Count(ctx); n != 0 {
		t.Fatalf("limit on empty traversal = %d", n)
	}
	vals, _ := g.V().Values(ctx, "name")
	if len(vals) != 4 {
		t.Fatalf("values = %v", vals)
	}
}

func TestTimeoutPropagates(t *testing.T) {
	e := neo.New(neo.V19)
	defer e.Close()
	g := New(e)
	var prev core.ID = core.NoID
	for i := 0; i < 5000; i++ {
		v, _ := e.AddVertex(nil)
		if prev != core.NoID {
			e.AddEdge(prev, v, "n", nil)
		}
		prev = v
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := g.V().Count(ctx); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("expired deadline err = %v", err)
	}
	if _, err := BFS(ctx, e, 0, 10); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("BFS deadline err = %v", err)
	}
	if _, err := ShortestPath(ctx, e, 0, 4999); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("SP deadline err = %v", err)
	}
}

// slowDegree is an engine whose Degree sleeps and finds no edges, so a
// degree filter does real work per element and rejects every one.
type slowDegree struct {
	core.Engine
	per      time.Duration
	deadline time.Time
	late     int // Degree calls begun after the deadline
}

func (s *slowDegree) Degree(core.ID, core.Direction) (int64, error) {
	if time.Now().After(s.deadline) {
		s.late++
	}
	time.Sleep(s.per)
	return 0, nil
}

// TestSelectiveFilterHonorsDeadline: a filter that rejects everything
// emits nothing, yet the traversal stops within ctxCheckEvery elements
// of its deadline, whether the elements come from the source scan or
// from an expansion.
func TestSelectiveFilterHonorsDeadline(t *testing.T) {
	e := neo.New(neo.V19)
	defer e.Close()
	prev := core.NoID
	for i := 0; i < 1000; i++ {
		v, _ := e.AddVertex(nil)
		if prev != core.NoID {
			e.AddEdge(prev, v, "n", nil)
		}
		prev = v
	}
	const timeout, per = 10 * time.Millisecond, 100 * time.Microsecond
	for _, tc := range []struct {
		name  string
		build func(G) *Traversal
	}{
		{"source", func(g G) *Traversal { return g.V().DegreeAtLeast(core.DirOut, 1) }},
		{"expansion", func(g G) *Traversal { return g.V().Out().DegreeAtLeast(core.DirOut, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &slowDegree{Engine: e, per: per}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			s.deadline, _ = ctx.Deadline()
			start := time.Now()
			n, err := tc.build(New(s)).Count(ctx)
			elapsed := time.Since(start)
			if !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("count %d, err %v after %v; want ErrTimeout", n, err, elapsed)
			}
			if s.late > ctxCheckEvery {
				t.Fatalf("%d Degree calls after the deadline, want at most %d", s.late, ctxCheckEvery)
			}
			t.Logf("ErrTimeout after %v (timeout %v), %d calls late", elapsed, timeout, s.late)
		})
	}
}

// slowNeighbors is an engine whose Neighbors iterator sleeps on every
// pull and yields 1,000 fresh ids, so a single expansion outlasts the
// deadline.
type slowNeighbors struct {
	core.Engine
	per      time.Duration
	deadline time.Time
	late     int // pulls begun after the deadline
}

func (s *slowNeighbors) Neighbors(core.ID, core.Direction, ...string) core.Iter[core.ID] {
	next := core.ID(1000)
	return func() (core.ID, bool) {
		if time.Now().After(s.deadline) {
			s.late++
		}
		if next == 2000 {
			return core.NoID, false
		}
		time.Sleep(s.per)
		next++
		return next, true
	}
}

// TestPathQueriesHonorDeadlineInsideExpansion: BFS and ShortestPath
// count the pulls of each neighbour iterator against the deadline, so
// one high-degree vertex cannot run the query far past it.
func TestPathQueriesHonorDeadlineInsideExpansion(t *testing.T) {
	e := neo.New(neo.V19)
	defer e.Close()
	start, _ := e.AddVertex(nil)
	other, _ := e.AddVertex(nil)
	const timeout, per = 20 * time.Millisecond, 100 * time.Microsecond
	for _, tc := range []struct {
		name string
		run  func(context.Context, core.Engine) error
	}{
		{"BFS", func(ctx context.Context, e core.Engine) error {
			_, err := BFS(ctx, e, start, 1)
			return err
		}},
		{"ShortestPath", func(ctx context.Context, e core.Engine) error {
			_, err := ShortestPath(ctx, e, start, other)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &slowNeighbors{Engine: e, per: per}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			s.deadline, _ = ctx.Deadline()
			if err := tc.run(ctx, s); !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("err %v, want ErrTimeout", err)
			}
			if s.late > ctxCheckEvery {
				t.Fatalf("%d pulls after the deadline, want at most %d", s.late, ctxCheckEvery)
			}
		})
	}
}

// TestTraversalAllocs bounds what one short traversal allocates on
// neo-1.9: the plan, the run state and the sinks, with the engine's
// own iterators included.
func TestTraversalAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := neo.New(neo.V19)
	defer e.Close()
	a, _, _, _ := diamond(t, e)
	eid, _ := e.Edges()()
	ctx := context.Background()
	g := New(e)
	for _, c := range []struct {
		name string
		fn   func() (int64, error)
		n    int64
		max  float64
	}{
		{"V(id).Count", func() (int64, error) { return g.VID(a).Count(ctx) }, 1, 4},
		{"V(id).Out().Count", func() (int64, error) { return g.VID(a).Out().Count(ctx) }, 2, 9},
		{"E(id).OutV().Count", func() (int64, error) { return g.EID(eid).OutV().Count(ctx) }, 1, 6},
	} {
		if n, err := c.fn(); n != c.n || err != nil {
			t.Fatalf("%s = %d, %v; want %d", c.name, n, err, c.n)
		}
		if n := testing.AllocsPerRun(100, func() { c.fn() }); n > c.max {
			t.Errorf("%s: %v allocs/op, want at most %v", c.name, n, c.max)
		}
	}
}

// TestSampleAllocs: a Sample's reservoir grows with what arrives, not
// with the requested size, so asking for four million elements of a
// four-vertex graph allocates kilobytes, not the 32 MiB n ids take.
func TestSampleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := neo.New(neo.V19)
	defer e.Close()
	diamond(t, e)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := New(e).V().Sample(1<<22, 1).Count(ctx)
	runtime.ReadMemStats(&after)
	if n != 4 || err != nil {
		t.Fatalf("Sample(1<<22).Count = %d, %v; want 4", n, err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Fatalf("Sample(1<<22) on 4 vertices allocated %d bytes, want at most %d", b, 64<<10)
	}
}

// labelHeavySparksee builds the graph shape on which the sparksee
// adapter exhausts its memory budget computing degrees (many nodes,
// many edge labels — the paper's Q28–Q31 failure on Freebase).
func labelHeavySparksee() core.Engine {
	e := sparksee.New(sparksee.WithMemBudget(1 << 20))
	const nodes, labels = 500, 400
	var vs []core.ID
	for i := 0; i < nodes; i++ {
		v, _ := e.AddVertex(nil)
		vs = append(vs, v)
	}
	for i := 0; i < 2*nodes; i++ {
		e.AddEdge(vs[i%nodes], vs[(i+1)%nodes], fmt.Sprint("l", i%labels), nil)
	}
	return e
}

// TestFilterErrorAborts: an engine failure inside a filter aborts the
// traversal with that error, on the path Q28–Q31 take.
func TestFilterErrorAborts(t *testing.T) {
	e := labelHeavySparksee()
	defer e.Close()
	_, err := New(e).V().DegreeAtLeast(core.DirBoth, 1).Count(context.Background())
	if !errors.Is(err, core.ErrOutOfMemory) {
		t.Fatalf("degree filter err = %v, want ErrOutOfMemory", err)
	}
}

func TestBFSDepths(t *testing.T) {
	for name, e := range testEngines() {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			// Path graph 0-1-2-3-4 (undirected reach via both()).
			var vs []core.ID
			for i := 0; i < 5; i++ {
				v, _ := e.AddVertex(nil)
				vs = append(vs, v)
			}
			for i := 0; i < 4; i++ {
				e.AddEdge(vs[i], vs[i+1], "p", nil)
			}
			ctx := context.Background()
			for depth, want := range map[int]int{1: 1, 2: 2, 4: 4, 10: 4} {
				got, err := BFS(ctx, e, vs[0], depth)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != want {
					t.Fatalf("BFS depth %d = %d nodes, want %d", depth, len(got), want)
				}
			}
			// Label-restricted BFS stops immediately on a missing label.
			got, err := BFS(ctx, e, vs[0], 3, "absent")
			if err != nil || len(got) != 0 {
				t.Fatalf("label BFS = %v, %v", got, err)
			}
		})
	}
}

func TestShortestPath(t *testing.T) {
	for name, e := range testEngines() {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			a, b, c, d := diamond(t, e)
			_ = b
			ctx := context.Background()
			// The z edge d->a makes a and d adjacent under both().
			p, err := ShortestPath(ctx, e, a, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(p) != 2 || p[0] != a || p[1] != d {
				t.Fatalf("path = %v", p)
			}
			// Label-filtered: only y edges, a-y->c-y->d.
			p, err = ShortestPath(ctx, e, a, d, "y")
			if err != nil || len(p) != 3 || p[1] != c {
				t.Fatalf("y-path = %v, %v", p, err)
			}
			// Unreachable via label x only.
			p, err = ShortestPath(ctx, e, c, b, "x")
			if err != nil || p != nil {
				t.Fatalf("unreachable path = %v, %v", p, err)
			}
			// Self path.
			p, _ = ShortestPath(ctx, e, a, a)
			if len(p) != 1 {
				t.Fatalf("self path = %v", p)
			}
		})
	}
}

func TestBFSOnMissingVertex(t *testing.T) {
	e := neo.New(neo.V19)
	defer e.Close()
	if _, err := BFS(context.Background(), e, 99, 2); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("BFS missing start err = %v", err)
	}
	if _, err := ShortestPath(context.Background(), e, 0, 1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("SP missing err = %v", err)
	}
}
