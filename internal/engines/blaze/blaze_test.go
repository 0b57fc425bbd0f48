package blaze

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/engines/enginetest"
	"repro/internal/race"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New() })
}

func TestConcurrencyConformance(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New() })
}

func TestEveryStatementIndexedThreeTimes(t *testing.T) {
	e := New()
	defer e.Close()
	e.AddVertex(core.Props{"p": core.I(1)})
	// 2 statements (type + property) in each of the three indexes.
	if e.spo.Len() != 2 || e.pos.Len() != 2 || e.osp.Len() != 2 {
		t.Fatalf("index lengths = %d/%d/%d", e.spo.Len(), e.pos.Len(), e.osp.Len())
	}
}

func TestEdgeReification(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	eid, _ := e.AddEdge(a, b, "knows", core.Props{"w": core.I(1)})
	// Reified edge = subject + predicate + object + 1 property = 4
	// statements; plus 2 vertex type statements = 6 total.
	if e.spo.Len() != 6 {
		t.Fatalf("spo statements = %d, want 6", e.spo.Len())
	}
	if s, _ := e.firstSP(int64(eid), rdfSubject); s != int64(a) {
		t.Fatal("rdf:subject statement wrong")
	}
	if o, _ := e.firstSP(int64(eid), rdfObject); o != int64(b) {
		t.Fatal("rdf:object statement wrong")
	}
	e.RemoveEdge(eid)
	if e.spo.Len() != 2 || e.pos.Len() != 2 || e.osp.Len() != 2 {
		t.Fatalf("edge statements not fully retracted: %d", e.spo.Len())
	}
}

func TestJournalPreallocatedInFixedSegments(t *testing.T) {
	e := New()
	defer e.Close()
	r := e.SpaceUsage()
	if r.Breakdown["journal(preallocated)"] != journalSegment {
		t.Fatalf("empty journal = %d, want one segment %d",
			r.Breakdown["journal(preallocated)"], journalSegment)
	}
	// The journal only grows in whole segments (over-allocation is the
	// paper's explanation for the ~3x space).
	g := core.NewGraph(2000, 8000)
	for i := 0; i < 2000; i++ {
		g.AddVertex(core.Props{"n": core.I(int64(i))})
	}
	for i := 0; i < 8000; i++ {
		g.AddEdge(i%2000, (i+7)%2000, "l", nil)
	}
	if _, err := e.BulkLoad(g); err != nil {
		t.Fatal(err)
	}
	cap := e.SpaceUsage().Breakdown["journal(preallocated)"]
	if cap%journalSegment != 0 {
		t.Fatalf("journal capacity %d not a multiple of the segment size", cap)
	}
	if cap <= e.journalUsed {
		t.Fatalf("journal capacity %d must exceed used bytes %d", cap, e.journalUsed)
	}
}

func TestBulkLoadMatchesIncrementalState(t *testing.T) {
	g := core.NewGraph(50, 120)
	for i := 0; i < 50; i++ {
		g.AddVertex(core.Props{"i": core.I(int64(i))})
	}
	for i := 0; i < 120; i++ {
		g.AddEdge(i%50, (i+3)%50, "l", core.Props{"w": core.I(int64(i))})
	}
	bulk := New()
	if _, err := bulk.BulkLoad(g); err != nil {
		t.Fatal(err)
	}
	incr := New()
	res := &core.LoadResult{}
	for i := range g.VProps {
		id, _ := incr.AddVertex(g.VProps[i])
		res.VertexIDs = append(res.VertexIDs, id)
	}
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		id, _ := incr.AddEdge(res.VertexIDs[er.Src], res.VertexIDs[er.Dst], er.Label, er.Props)
		res.EdgeIDs = append(res.EdgeIDs, id)
	}
	if bulk.spo.Len() != incr.spo.Len() {
		t.Fatalf("statement counts differ: bulk=%d incr=%d", bulk.spo.Len(), incr.spo.Len())
	}
	// The bulk path sorts term triples, not keys: every index must hold
	// the keys, in the order, that per-statement inserts give it.
	keysOf := func(tr *btree.Tree) (out []string) {
		tr.AscendPrefix(nil, func(k, _ []byte) bool { out = append(out, string(k)); return true })
		return out
	}
	for name, pair := range map[string][2]*btree.Tree{
		"spo": {bulk.spo, incr.spo}, "pos": {bulk.pos, incr.pos}, "osp": {bulk.osp, incr.osp},
	} {
		if !slices.Equal(keysOf(pair[0]), keysOf(pair[1])) {
			t.Errorf("%s index: bulk and incremental keys differ", name)
		}
	}
	nb, _ := bulk.CountEdges()
	ni, _ := incr.CountEdges()
	if nb != ni || nb != 120 {
		t.Fatalf("edge counts: bulk=%d incr=%d", nb, ni)
	}
	// Both must answer the same traversal.
	db, _ := bulk.Degree(core.ID(mkTerm(tagVertex, 0)), core.DirBoth)
	di, _ := incr.Degree(core.ID(mkTerm(tagVertex, 0)), core.DirBoth)
	if db != di {
		t.Fatalf("degree diverged: %d vs %d", db, di)
	}
}

func TestNoUserIndexes(t *testing.T) {
	e := New()
	defer e.Close()
	if err := e.BuildVertexPropIndex("x"); err != core.ErrUnsupported {
		t.Fatalf("BuildVertexPropIndex err = %v, want ErrUnsupported", err)
	}
	if e.HasVertexPropIndex("x") {
		t.Fatal("index reported despite being unsupported")
	}
}

func TestSpaceTriplication(t *testing.T) {
	// The three statement indexes make structural bytes ~3x a single
	// index; verify spo/pos/osp are all populated and similar in size.
	e := New()
	defer e.Close()
	g := core.NewGraph(100, 400)
	for i := 0; i < 100; i++ {
		g.AddVertex(nil)
	}
	for i := 0; i < 400; i++ {
		g.AddEdge(i%100, (i+1)%100, "l", nil)
	}
	e.BulkLoad(g)
	r := e.SpaceUsage()
	spo, pos, osp := r.Breakdown["spo-index"], r.Breakdown["pos-index"], r.Breakdown["osp-index"]
	if spo == 0 || pos == 0 || osp == 0 {
		t.Fatalf("an index is empty: %d/%d/%d", spo, pos, osp)
	}
	if pos < spo/2 || pos > spo*2 || osp < spo/2 || osp > spo*2 {
		t.Fatalf("index sizes should be comparable: %d/%d/%d", spo, pos, osp)
	}
}

// TestReadAllocs pins allocation-free probes: every read still pays its
// B+Tree descents (the reification cost the paper measures), but the
// probe keys live on the stack and the descents record no path.
func TestReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := New()
	defer e.Close()
	var vs []core.ID
	for i := 0; i < 500; i++ {
		v, _ := e.AddVertex(core.Props{"name": core.S(fmt.Sprint("v", i)), "age": core.I(int64(i))})
		vs = append(vs, v)
	}
	var eid core.ID
	for i := 1; i < len(vs); i++ {
		eid, _ = e.AddEdge(vs[i-1], vs[i], "knows", core.Props{"w": core.I(int64(i))})
	}
	v := vs[250]
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"HasVertex", func() { e.HasVertex(v) }},
		{"EdgeEnds", func() { e.EdgeEnds(eid) }},
		{"VertexProp", func() { e.VertexProp(v, "age") }},
	} {
		if a := testing.AllocsPerRun(100, c.fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
	if age, ok := e.VertexProp(v, "age"); !ok || age != core.I(250) {
		t.Fatalf("VertexProp = %v, %v", age, ok)
	}
}
