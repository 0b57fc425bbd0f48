package core

import (
	"reflect"
	"testing"
)

func triangle() *Graph {
	g := NewGraph(3, 3)
	a := g.AddVertex(Props{"name": S("a")})
	b := g.AddVertex(Props{"name": S("b")})
	c := g.AddVertex(Props{"name": S("c")})
	g.AddEdge(a, b, "knows", nil)
	g.AddEdge(b, c, "knows", nil)
	g.AddEdge(c, a, "likes", Props{"w": I(2)})
	return g
}

func TestGraphCounts(t *testing.T) {
	g := triangle()
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("counts = %d,%d", g.NumVertices(), g.NumEdges())
	}
}

func TestGraphLabelsSortedDistinct(t *testing.T) {
	g := triangle()
	if got := g.Labels(); !reflect.DeepEqual(got, []string{"knows", "likes"}) {
		t.Fatalf("Labels() = %v", got)
	}
}

func TestGraphDegrees(t *testing.T) {
	g := triangle()
	if got := g.OutDegrees(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("OutDegrees() = %v", got)
	}
	if got := g.InDegrees(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("InDegrees() = %v", got)
	}
}

func TestGraphAdjacencyUndirected(t *testing.T) {
	g := triangle()
	adj := g.Adjacency()
	for v, ns := range adj {
		if len(ns) != 2 {
			t.Errorf("vertex %d has %d undirected neighbours, want 2", v, len(ns))
		}
	}
}

func TestGraphAddEdgePanicsOnBadEndpoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-range endpoint")
		}
	}()
	g := NewGraph(0, 0)
	g.AddEdge(0, 1, "x", nil)
}

func TestSpaceReportAdd(t *testing.T) {
	var r SpaceReport
	r.Add("a", 10)
	r.Add("a", 5)
	r.Add("b", 1)
	if r.Total != 16 || r.Breakdown["a"] != 15 || r.Breakdown["b"] != 1 {
		t.Fatalf("report = %+v", r)
	}
}

func TestIterHelpers(t *testing.T) {
	it := SliceIter([]int{1, 2, 3, 4})
	even := FilterIter(it, func(i int) bool { return i%2 == 0 })
	if got := Collect(even); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("filter/collect = %v", got)
	}
	if n := Drain(SliceIter([]string{"a", "b"})); n != 2 {
		t.Fatalf("Drain = %d", n)
	}
	if _, ok := EmptyIter[int]()(); ok {
		t.Fatalf("EmptyIter yielded an element")
	}
}
