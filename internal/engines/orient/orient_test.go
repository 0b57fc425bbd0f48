package orient

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines/enginetest"
	"repro/internal/race"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New() })
}

func TestConcurrencyConformance(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New() })
}

func TestOneClusterPerEdgeLabel(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	for _, l := range []string{"x", "y", "z", "x"} {
		e.AddEdge(a, b, l, nil)
	}
	if len(e.eclusters) != 3 {
		t.Fatalf("edge clusters = %d, want 3", len(e.eclusters))
	}
	// Space must grow with label cardinality even at constant edge count
	// (the paper's Frb-S finding).
	manyLabels := New()
	fewLabels := New()
	ga := core.NewGraph(50, 200)
	gb := core.NewGraph(50, 200)
	for i := 0; i < 50; i++ {
		ga.AddVertex(nil)
		gb.AddVertex(nil)
	}
	for i := 0; i < 200; i++ {
		ga.AddEdge(i%50, (i+1)%50, string(rune('a'+i%26))+string(rune('a'+(i/26)%26)), nil)
		gb.AddEdge(i%50, (i+1)%50, "only", nil)
	}
	manyLabels.BulkLoad(ga)
	fewLabels.BulkLoad(gb)
	if manyLabels.SpaceUsage().Breakdown["edge-clusters"] <= fewLabels.SpaceUsage().Breakdown["edge-clusters"] {
		t.Fatal("label cardinality did not cost cluster space")
	}
}

func TestRIDStableAcrossRelocation(t *testing.T) {
	e := New()
	defer e.Close()
	v, _ := e.AddVertex(core.Props{"n": core.I(1)})
	heapBefore := e.vcluster.heap.Bytes()
	// Many rewrites relocate the document; the RID must keep resolving.
	for i := int64(0); i < 20; i++ {
		if err := e.SetVertexProp(v, "n", core.I(i)); err != nil {
			t.Fatal(err)
		}
	}
	if e.vcluster.heap.Bytes() <= heapBefore {
		t.Fatal("rewrites did not append (expected append-only relocation)")
	}
	if e.vcluster.heap.DeadBytes() == 0 {
		t.Fatal("old document versions not marked dead")
	}
	if got, _ := e.VertexProp(v, "n"); got != core.I(19) {
		t.Fatalf("value after relocations = %v", got)
	}
}

func TestEdgeInsertRewritesBothEndpoints(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	dead := e.vcluster.heap.DeadBytes()
	e.AddEdge(a, b, "l", nil)
	if e.vcluster.heap.DeadBytes() <= dead {
		t.Fatal("edge insertion did not rewrite endpoint documents")
	}
}

func TestLabelFilteredTraversalSkipsOtherClusters(t *testing.T) {
	e := New()
	defer e.Close()
	hub, _ := e.AddVertex(nil)
	for i := 0; i < 10; i++ {
		v, _ := e.AddVertex(nil)
		label := "a"
		if i%2 == 1 {
			label = "b"
		}
		e.AddEdge(hub, v, label, nil)
	}
	if n := core.Drain(e.Neighbors(hub, core.DirOut, "a")); n != 5 {
		t.Fatalf("out(hub,a) = %d", n)
	}
	if n := core.Drain(e.Neighbors(hub, core.DirOut, "absent")); n != 0 {
		t.Fatalf("out(hub,absent) = %d", n)
	}
	if n := core.Drain(e.Neighbors(hub, core.DirOut, "a", "b")); n != 10 {
		t.Fatalf("out(hub,a,b) = %d", n)
	}
}

func TestBulkLoadWritesEachVertexDocOnce(t *testing.T) {
	e := New()
	defer e.Close()
	g := core.NewGraph(100, 300)
	for i := 0; i < 100; i++ {
		g.AddVertex(nil)
	}
	for i := 0; i < 300; i++ {
		g.AddEdge(i%100, (i+3)%100, "l", nil)
	}
	if _, err := e.BulkLoad(g); err != nil {
		t.Fatal(err)
	}
	if e.vcluster.heap.DeadBytes() != 0 {
		t.Fatalf("bulk load rewrote vertex documents (%d dead bytes)", e.vcluster.heap.DeadBytes())
	}
}

// TestBulkLoadAllocs bounds the allocations of New plus BulkLoad of
// frb-s@0.002 (1,000 vertices, 600 edges): the documents are encoded
// into one reused buffer that the cluster heaps copy, so what is left
// is a cluster per edge label and the heaps' growth (1,009 measured;
// 7,576 when every document was encoded into a buffer of its own).
func TestBulkLoadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	g, _, err := datasets.AcquireWith("frb-s", 0.002, datasets.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Snapshot() // built once and shared; not the engine's cost
	const ceiling = 1500
	n := testing.AllocsPerRun(10, func() {
		if _, err := New().BulkLoad(g); err != nil {
			t.Fatal(err)
		}
	})
	if n > ceiling {
		t.Errorf("New+BulkLoad of frb-s@0.002: %.0f allocations, ceiling %d", n, ceiling)
	}
}
