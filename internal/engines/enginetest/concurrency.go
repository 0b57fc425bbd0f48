package enginetest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// RunConcurrency executes the concurrency-conformance battery against
// fresh engines produced by newEngine. It exercises the documented
// contract from internal/core: engines are accessed through core.Guard
// (exclusive writer, shared readers; full serialization for
// ConcurrentReader-vetoing engines), and after any guarded schedule the
// read surfaces must agree with each other. Run it under -race — half
// the value of the suite is the detector watching the shared-reader
// paths.
func RunConcurrency(t *testing.T, newEngine func() core.Engine) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(*testing.T, func() core.Engine)
	}{
		{"GuardHonorsVeto", testGuardHonorsVeto},
		{"ConcurrentReadersDuringMutation", testConcurrentReadersDuringMutation},
		{"SingleWriterInterleavings", testSingleWriterInterleavings},
		{"RandomizedScheduleInvariants", testRandomizedScheduleInvariants},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.fn(t, newEngine) })
	}
}

// testGuardHonorsVeto pins the capability wiring: the guard serializes
// exactly the engines that veto concurrent reads, and never invents a
// ConcurrentWrites grant the engine did not make.
func testGuardHonorsVeto(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	g := core.Guard(e)
	veto := false
	if cr, ok := e.(core.ConcurrentReader); ok && !cr.ConcurrentReads() {
		veto = true
	}
	if g.Exclusive() != veto {
		t.Fatalf("guard exclusive = %v, engine read veto = %v", g.Exclusive(), veto)
	}
	grant := false
	if cw, ok := e.(core.ConcurrentWriter); ok {
		grant = cw.ConcurrentWrites()
	}
	if g.ConcurrentWrites() != grant {
		t.Fatalf("guard write grant = %v, engine grant = %v", g.ConcurrentWrites(), grant)
	}
	if !g.ConcurrentReads() {
		t.Fatal("guarded view must always grant ConcurrentReads")
	}
}

// testConcurrentReadersDuringMutation runs read-only clients over every
// read surface while a single writer churns its own region of the
// graph. Readers only assert facts the writer never invalidates (the
// bulk-loaded base is left untouched), so any failure is a real
// consistency break, not schedule noise.
func testConcurrentReadersDuringMutation(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	g := core.Guard(e)
	res, err := g.BulkLoad(SampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	base := res.VertexIDs
	baseEdges := int64(len(res.EdgeIDs))

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}

	wg.Add(1)
	go func() { // the single writer: grows and prunes a private star
		defer wg.Done()
		hub, err := g.AddVertex(core.Props{"role": core.S("hub")})
		if err != nil {
			report("writer AddVertex: %v", err)
			return
		}
		var spokes []core.ID
		for i := 0; i < 120; i++ {
			v, err := g.AddVertex(core.Props{"i": core.I(int64(i))})
			if err != nil {
				report("writer AddVertex: %v", err)
				return
			}
			if _, err := g.AddEdge(hub, v, "spoke", nil); err != nil {
				report("writer AddEdge: %v", err)
				return
			}
			if err := g.SetVertexProp(v, "touched", core.I(1)); err != nil {
				report("writer SetVertexProp: %v", err)
				return
			}
			spokes = append(spokes, v)
			if i%4 == 3 { // prune the oldest spoke (cascades its edge)
				if err := g.RemoveVertex(spokes[0]); err != nil {
					report("writer RemoveVertex: %v", err)
					return
				}
				spokes = spokes[1:]
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, v := range base {
					if !g.HasVertex(v) {
						report("base vertex %d vanished", v)
						return
					}
				}
				if p, ok := g.VertexProp(base[0], "idx"); !ok || p != core.I(0) {
					report("base prop drifted: %v %v", p, ok)
					return
				}
				if n, err := g.CountVertices(); err != nil || n < int64(len(base)) {
					report("CountVertices = %d (%v)", n, err)
					return
				}
				if n, err := g.CountEdges(); err != nil || n < baseEdges {
					report("CountEdges = %d (%v)", n, err)
					return
				}
				// Scans and traversals must at least cover the base and never race.
				if n := core.Drain(g.Vertices()); n < len(base) {
					report("Vertices scan saw %d < base %d", n, len(base))
					return
				}
				if got := ids(g.Neighbors(base[0], core.DirOut)); !sameIDs(got, ids(core.SliceIter([]core.ID{base[1], base[2]}))) {
					report("base adjacency drifted: %v", got)
					return
				}
				if d, err := g.Degree(base[4], core.DirBoth); err != nil || d != 3 {
					report("base degree drifted: %d (%v)", d, err)
					return
				}
				core.Drain(g.EdgesByLabel("spoke"))
				core.Drain(g.VerticesByProp("role", core.S("hub")))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	checkConsistent(t, g)
}

// testSingleWriterInterleavings runs several writer clients through the
// guard and checks the final state is the serial sum of their work:
// every client's private chain must be fully present with its edges and
// final property values, whatever the interleaving.
func testSingleWriterInterleavings(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	g := core.Guard(e)
	const writers, chain = 4, 40

	owned := make([][]core.ID, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev core.ID = core.NoID
			for i := 0; i < chain; i++ {
				v, err := g.AddVertex(core.Props{"w": core.I(int64(w))})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if prev != core.NoID {
					if _, err := g.AddEdge(prev, v, "next", nil); err != nil {
						t.Errorf("writer %d edge: %v", w, err)
						return
					}
				}
				// Overwrite twice: last write must win within this client.
				g.SetVertexProp(v, "seq", core.I(int64(i-1)))
				if err := g.SetVertexProp(v, "seq", core.I(int64(i))); err != nil {
					t.Errorf("writer %d set: %v", w, err)
					return
				}
				owned[w] = append(owned[w], v)
				prev = v
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if n, _ := g.CountVertices(); n != int64(writers*chain) {
		t.Fatalf("CountVertices = %d, want %d", n, writers*chain)
	}
	if n, _ := g.CountEdges(); n != int64(writers*(chain-1)) {
		t.Fatalf("CountEdges = %d, want %d", n, writers*(chain-1))
	}
	for w, vs := range owned {
		for i, v := range vs {
			if got, ok := g.VertexProp(v, "seq"); !ok || got != core.I(int64(i)) {
				t.Fatalf("writer %d vertex %d seq = %v %v", w, i, got, ok)
			}
			if i > 0 {
				if got := ids(g.Neighbors(vs[i-1], core.DirOut)); !sameIDs(got, []core.ID{v}) {
					t.Fatalf("writer %d chain broken at %d: %v", w, i, got)
				}
			}
		}
	}
	checkConsistent(t, g)
}

// testRandomizedScheduleInvariants drives a seeded mixed schedule —
// every client interleaves reads, inserts, updates, and deletes of its
// own objects — then audits the survivors' full read surface against
// each other. The schedule is deterministic per client (seeded), the
// interleaving is not; the invariants hold either way.
func testRandomizedScheduleInvariants(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	g := core.Guard(e)
	res, err := g.BulkLoad(SampleGraph())
	if err != nil {
		t.Fatal(err)
	}
	base := res.VertexIDs

	const clients, steps = 4, 150
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			var mine []core.ID // vertices this client owns
			for i := 0; i < steps; i++ {
				switch op := rng.Intn(10); {
				case op < 3: // insert vertex
					v, err := g.AddVertex(core.Props{"c": core.I(int64(c))})
					if err != nil {
						t.Errorf("client %d add: %v", c, err)
						return
					}
					mine = append(mine, v)
				case op < 5 && len(mine) > 0: // insert edge among owned
					src := mine[rng.Intn(len(mine))]
					dst := mine[rng.Intn(len(mine))]
					if _, err := g.AddEdge(src, dst, "r", nil); err != nil {
						t.Errorf("client %d edge: %v", c, err)
						return
					}
				case op < 6 && len(mine) > 0: // update
					v := mine[rng.Intn(len(mine))]
					if err := g.SetVertexProp(v, "u", core.I(int64(i))); err != nil {
						t.Errorf("client %d set: %v", c, err)
						return
					}
				case op < 7 && len(mine) > 1: // delete an owned vertex
					k := rng.Intn(len(mine))
					if err := g.RemoveVertex(mine[k]); err != nil {
						t.Errorf("client %d remove: %v", c, err)
						return
					}
					mine = append(mine[:k], mine[k+1:]...)
				default: // read
					g.HasVertex(base[rng.Intn(len(base))])
					core.Drain(g.Neighbors(base[rng.Intn(len(base))], core.DirBoth))
					g.CountEdges()
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkConsistent(t, g)
}

// checkConsistent audits every read surface against every other after
// the schedule has quiesced: counts match scans, edges connect live
// vertices, per-vertex degrees sum to the edge population, and label
// partitions cover the edge set exactly.
func checkConsistent(t *testing.T, e core.Engine) {
	t.Helper()
	vs := core.Collect(e.Vertices())
	es := core.Collect(e.Edges())
	if n, err := e.CountVertices(); err != nil || n != int64(len(vs)) {
		t.Fatalf("CountVertices = %d (%v), scan = %d", n, err, len(vs))
	}
	if n, err := e.CountEdges(); err != nil || n != int64(len(es)) {
		t.Fatalf("CountEdges = %d (%v), scan = %d", n, err, len(es))
	}
	live := make(map[core.ID]bool, len(vs))
	for _, v := range vs {
		if !e.HasVertex(v) {
			t.Fatalf("scanned vertex %d fails HasVertex", v)
		}
		live[v] = true
	}
	labels := map[string]int{}
	var outSum, inSum int64
	for _, id := range es {
		if !e.HasEdge(id) {
			t.Fatalf("scanned edge %d fails HasEdge", id)
		}
		src, dst, err := e.EdgeEnds(id)
		if err != nil {
			t.Fatalf("EdgeEnds(%d): %v", id, err)
		}
		if !live[src] || !live[dst] {
			t.Fatalf("edge %d connects dead endpoint (%d -> %d)", id, src, dst)
		}
		l, err := e.EdgeLabel(id)
		if err != nil {
			t.Fatalf("EdgeLabel(%d): %v", id, err)
		}
		labels[l]++
	}
	for _, v := range vs {
		out, err := e.Degree(v, core.DirOut)
		if err != nil {
			t.Fatalf("Degree(%d, out): %v", v, err)
		}
		in, err := e.Degree(v, core.DirIn)
		if err != nil {
			t.Fatalf("Degree(%d, in): %v", v, err)
		}
		if n := int64(core.Drain(e.Neighbors(v, core.DirOut))); n != out {
			t.Fatalf("vertex %d: out degree %d, neighbors %d", v, out, n)
		}
		outSum += out
		inSum += in
	}
	if outSum != int64(len(es)) || inSum != int64(len(es)) {
		t.Fatalf("degree sums out=%d in=%d, edges=%d", outSum, inSum, len(es))
	}
	var labelSum int
	for l, n := range labels {
		if got := core.Drain(e.EdgesByLabel(l)); got != n {
			t.Fatalf("EdgesByLabel(%q) = %d, want %d", l, got, n)
		}
		labelSum += n
	}
	if labelSum != len(es) {
		t.Fatalf("label partition covers %d of %d edges", labelSum, len(es))
	}
}
