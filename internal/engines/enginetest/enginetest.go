// Package enginetest is a conformance kit for core.Engine
// implementations. Every engine package runs the same battery through
// Run, so the nine configurations are held to identical semantics — the
// precondition for the paper's comparative methodology ("any random
// selection made in one system has been maintained the same across the
// other systems").
//
// Contract details the kit enforces beyond the obvious:
//
//   - BothE yields each incident edge exactly once (self-loops once).
//   - Neighbors yields the opposite endpoint per incident edge, so
//     parallel edges produce duplicates and self-loops yield the vertex.
//   - RemoveVertex cascades to incident edges and their properties.
//   - Scans see exactly the live objects, in any order.
//   - BulkLoad's LoadResult maps dataset indexes to engine IDs.
//   - A closed engine holds no data: it reads as an empty graph and
//     refuses inserts and loads with core.ErrClosed.
package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// Run executes the full conformance battery against fresh engines
// produced by newEngine.
func Run(t *testing.T, newEngine func() core.Engine) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(*testing.T, func() core.Engine)
	}{
		{"VertexCRUD", testVertexCRUD},
		{"EdgeCRUD", testEdgeCRUD},
		{"UnderscorePropertyName", testUnderscorePropertyName},
		{"PropertyUpdateRemove", testPropertyUpdateRemove},
		{"RemoveVertexCascades", testRemoveVertexCascades},
		{"Counts", testCounts},
		{"Scans", testScans},
		{"SearchByProperty", testSearchByProperty},
		{"SearchByLabel", testSearchByLabel},
		{"Traversal", testTraversal},
		{"ParallelEdgesAndLoops", testParallelEdgesAndLoops},
		{"Degree", testDegree},
		{"MissingIDs", testMissingIDs},
		{"BulkLoad", testBulkLoad},
		{"PropertyIndex", testPropertyIndex},
		{"SpaceUsage", testSpaceUsage},
		{"Meta", testMeta},
		{"RandomizedAgainstReference", testRandomizedAgainstReference},
		{"Closed", testClosed},
		{"Clone", testClone},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.fn(t, newEngine) })
	}
}

func ids(it core.Iter[core.ID]) []core.ID {
	s := core.Collect(it)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func sameIDs(a, b []core.ID) bool {
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

func testVertexCRUD(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	id, err := e.AddVertex(core.Props{"name": core.S("ann"), "age": core.I(31)})
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasVertex(id) {
		t.Fatal("vertex missing after AddVertex")
	}
	p, err := e.VertexProps(id)
	if err != nil {
		t.Fatal(err)
	}
	if p["name"] != core.S("ann") || p["age"] != core.I(31) {
		t.Fatalf("props = %v", p)
	}
	if v, ok := e.VertexProp(id, "name"); !ok || v != core.S("ann") {
		t.Fatalf("VertexProp = %v %v", v, ok)
	}
	if _, ok := e.VertexProp(id, "none"); ok {
		t.Fatal("absent property returned")
	}
	if err := e.RemoveVertex(id); err != nil {
		t.Fatal(err)
	}
	if e.HasVertex(id) {
		t.Fatal("vertex visible after removal")
	}
}

// testUnderscorePropertyName: a user property whose name starts with
// "_" (the prefix of some engines' own document fields) is an ordinary
// property on every engine.
func testUnderscorePropertyName(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	a, err := e.AddVertex(core.Props{"_x": core.S("v")})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := e.AddVertex(nil)
	eid, err := e.AddEdge(a, b, "l", core.Props{"_x": core.I(1)})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := e.VertexProps(a); err != nil || len(p) != 1 || p["_x"] != core.S("v") {
		t.Fatalf("VertexProps = %v, %v", p, err)
	}
	if p, err := e.EdgeProps(eid); err != nil || len(p) != 1 || p["_x"] != core.I(1) {
		t.Fatalf("EdgeProps = %v, %v", p, err)
	}
	if err := e.SetVertexProp(b, "_x", core.S("w")); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.VertexProp(b, "_x"); !ok || v != core.S("w") {
		t.Fatalf("VertexProp = %v, %v", v, ok)
	}
	if err := e.SetEdgeProp(eid, "_x", core.I(2)); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.EdgeProp(eid, "_x"); !ok || v != core.I(2) {
		t.Fatalf("EdgeProp = %v, %v", v, ok)
	}
	if got := ids(e.VerticesByProp("_x", core.S("v"))); !sameIDs(got, []core.ID{a}) {
		t.Fatalf("VerticesByProp = %v", got)
	}
	if got := ids(e.EdgesByProp("_x", core.I(2))); !sameIDs(got, []core.ID{eid}) {
		t.Fatalf("EdgesByProp = %v", got)
	}
}

func testEdgeCRUD(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	eid, err := e.AddEdge(a, b, "knows", core.Props{"since": core.I(2010)})
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasEdge(eid) {
		t.Fatal("edge missing after AddEdge")
	}
	if l, err := e.EdgeLabel(eid); err != nil || l != "knows" {
		t.Fatalf("label = %q %v", l, err)
	}
	src, dst, err := e.EdgeEnds(eid)
	if err != nil || src != a || dst != b {
		t.Fatalf("ends = %v,%v %v", src, dst, err)
	}
	if v, ok := e.EdgeProp(eid, "since"); !ok || v != core.I(2010) {
		t.Fatalf("EdgeProp = %v %v", v, ok)
	}
	p, err := e.EdgeProps(eid)
	if err != nil || p["since"] != core.I(2010) {
		t.Fatalf("EdgeProps = %v %v", p, err)
	}
	if err := e.RemoveEdge(eid); err != nil {
		t.Fatal(err)
	}
	if e.HasEdge(eid) {
		t.Fatal("edge visible after removal")
	}
	if n := core.Drain(e.IncidentEdges(a, core.DirBoth)); n != 0 {
		t.Fatalf("incident edges after removal = %d", n)
	}
}

func testPropertyUpdateRemove(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	v, _ := e.AddVertex(core.Props{"p": core.I(1)})
	if err := e.SetVertexProp(v, "p", core.I(2)); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.VertexProp(v, "p"); got != core.I(2) {
		t.Fatalf("updated prop = %v", got)
	}
	if err := e.SetVertexProp(v, "q", core.S("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.VertexProp(v, "q"); got != core.S("new") {
		t.Fatalf("added prop = %v", got)
	}
	if err := e.RemoveVertexProp(v, "p"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.VertexProp(v, "p"); ok {
		t.Fatal("removed prop visible")
	}

	a, _ := e.AddVertex(nil)
	eid, _ := e.AddEdge(v, a, "l", nil)
	if err := e.SetEdgeProp(eid, "w", core.F(0.5)); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.EdgeProp(eid, "w"); got != core.F(0.5) {
		t.Fatalf("edge prop = %v", got)
	}
	if err := e.SetEdgeProp(eid, "w", core.F(1.5)); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.EdgeProp(eid, "w"); got != core.F(1.5) {
		t.Fatalf("edge prop after update = %v", got)
	}
	if err := e.RemoveEdgeProp(eid, "w"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.EdgeProp(eid, "w"); ok {
		t.Fatal("removed edge prop visible")
	}
}

func testRemoveVertexCascades(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	hub, _ := e.AddVertex(core.Props{"k": core.S("hub")})
	var spokes []core.ID
	var edges []core.ID
	for i := 0; i < 5; i++ {
		s, _ := e.AddVertex(nil)
		spokes = append(spokes, s)
		var eid core.ID
		if i%2 == 0 {
			eid, _ = e.AddEdge(hub, s, "out", nil)
		} else {
			eid, _ = e.AddEdge(s, hub, "in", core.Props{"i": core.I(int64(i))})
		}
		edges = append(edges, eid)
	}
	if err := e.RemoveVertex(hub); err != nil {
		t.Fatal(err)
	}
	for _, eid := range edges {
		if e.HasEdge(eid) {
			t.Fatalf("edge %d survived vertex removal", eid)
		}
	}
	if n, _ := e.CountEdges(); n != 0 {
		t.Fatalf("edge count after cascade = %d", n)
	}
	for _, s := range spokes {
		if !e.HasVertex(s) {
			t.Fatalf("spoke %d disappeared", s)
		}
		if n := core.Drain(e.IncidentEdges(s, core.DirBoth)); n != 0 {
			t.Fatalf("spoke %d still sees %d edges", s, n)
		}
	}
}

func testCounts(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	if n, _ := e.CountVertices(); n != 0 {
		t.Fatalf("empty engine has %d vertices", n)
	}
	var vs []core.ID
	for i := 0; i < 10; i++ {
		v, _ := e.AddVertex(nil)
		vs = append(vs, v)
	}
	for i := 0; i < 9; i++ {
		e.AddEdge(vs[i], vs[i+1], "n", nil)
	}
	if n, _ := e.CountVertices(); n != 10 {
		t.Fatalf("CountVertices = %d", n)
	}
	if n, _ := e.CountEdges(); n != 9 {
		t.Fatalf("CountEdges = %d", n)
	}
	e.RemoveVertex(vs[5]) // cascades 2 edges
	if n, _ := e.CountVertices(); n != 9 {
		t.Fatalf("CountVertices after delete = %d", n)
	}
	if n, _ := e.CountEdges(); n != 7 {
		t.Fatalf("CountEdges after cascade = %d", n)
	}
}

func testScans(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	var want []core.ID
	for i := 0; i < 7; i++ {
		v, _ := e.AddVertex(nil)
		want = append(want, v)
	}
	e1, _ := e.AddEdge(want[0], want[1], "a", nil)
	e2, _ := e.AddEdge(want[1], want[2], "b", nil)
	e.RemoveVertex(want[6])
	got := ids(e.Vertices())
	if !sameIDs(got, ids(core.SliceIter(want[:6]))) {
		t.Fatalf("Vertices = %v, want %v", got, want[:6])
	}
	gotE := ids(e.Edges())
	if !sameIDs(gotE, ids(core.SliceIter([]core.ID{e1, e2}))) {
		t.Fatalf("Edges = %v", gotE)
	}
}

func testSearchByProperty(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	var reds []core.ID
	for i := 0; i < 10; i++ {
		var p core.Props
		if i%3 == 0 {
			p = core.Props{"color": core.S("red"), "i": core.I(int64(i))}
		} else {
			p = core.Props{"color": core.S("blue")}
		}
		v, _ := e.AddVertex(p)
		if i%3 == 0 {
			reds = append(reds, v)
		}
	}
	got := ids(e.VerticesByProp("color", core.S("red")))
	if !sameIDs(got, ids(core.SliceIter(reds))) {
		t.Fatalf("VerticesByProp = %v, want %v", got, reds)
	}
	if n := core.Drain(e.VerticesByProp("color", core.S("green"))); n != 0 {
		t.Fatalf("found %d green vertices", n)
	}
	// Edge property search.
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	e1, _ := e.AddEdge(a, b, "l", core.Props{"w": core.I(9)})
	e.AddEdge(b, a, "l", core.Props{"w": core.I(1)})
	gotE := ids(e.EdgesByProp("w", core.I(9)))
	if len(gotE) != 1 || gotE[0] != e1 {
		t.Fatalf("EdgesByProp = %v, want [%v]", gotE, e1)
	}
}

func testSearchByLabel(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	var knows []core.ID
	for i := 0; i < 4; i++ {
		id, _ := e.AddEdge(a, b, "knows", nil)
		knows = append(knows, id)
	}
	other, _ := e.AddEdge(b, a, "likes", nil)
	got := ids(e.EdgesByLabel("knows"))
	if !sameIDs(got, ids(core.SliceIter(knows))) {
		t.Fatalf("EdgesByLabel(knows) = %v", got)
	}
	if got := ids(e.EdgesByLabel("likes")); len(got) != 1 || got[0] != other {
		t.Fatalf("EdgesByLabel(likes) = %v", got)
	}
	if n := core.Drain(e.EdgesByLabel("absent")); n != 0 {
		t.Fatalf("EdgesByLabel(absent) = %d", n)
	}
}

func testTraversal(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	//      a --x--> b --y--> c
	//      a --y--> c
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	c, _ := e.AddVertex(nil)
	ab, _ := e.AddEdge(a, b, "x", nil)
	bc, _ := e.AddEdge(b, c, "y", nil)
	ac, _ := e.AddEdge(a, c, "y", nil)

	if got := ids(e.Neighbors(a, core.DirOut)); !sameIDs(got, ids(core.SliceIter([]core.ID{b, c}))) {
		t.Fatalf("out(a) = %v", got)
	}
	if got := ids(e.Neighbors(a, core.DirOut, "y")); !sameIDs(got, []core.ID{c}) {
		t.Fatalf("out(a,y) = %v", got)
	}
	if got := ids(e.Neighbors(c, core.DirIn)); !sameIDs(got, ids(core.SliceIter([]core.ID{a, b}))) {
		t.Fatalf("in(c) = %v", got)
	}
	if got := ids(e.Neighbors(b, core.DirBoth)); !sameIDs(got, ids(core.SliceIter([]core.ID{a, c}))) {
		t.Fatalf("both(b) = %v", got)
	}
	if got := ids(e.IncidentEdges(a, core.DirOut)); !sameIDs(got, ids(core.SliceIter([]core.ID{ab, ac}))) {
		t.Fatalf("outE(a) = %v", got)
	}
	if got := ids(e.IncidentEdges(c, core.DirIn, "y")); !sameIDs(got, ids(core.SliceIter([]core.ID{bc, ac}))) {
		t.Fatalf("inE(c,y) = %v", got)
	}
	if got := ids(e.IncidentEdges(b, core.DirBoth)); !sameIDs(got, ids(core.SliceIter([]core.ID{ab, bc}))) {
		t.Fatalf("bothE(b) = %v", got)
	}
	if got := ids(e.IncidentEdges(b, core.DirBoth, "x")); !sameIDs(got, []core.ID{ab}) {
		t.Fatalf("bothE(b,x) = %v", got)
	}
}

func testParallelEdgesAndLoops(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	e.AddEdge(a, b, "p", nil)
	e.AddEdge(a, b, "p", nil) // parallel
	loop, _ := e.AddEdge(a, a, "self", nil)

	if got := core.Collect(e.Neighbors(a, core.DirOut)); len(got) != 3 {
		t.Fatalf("out(a) with parallels = %v", got)
	}
	// BothE: each incident edge exactly once; the loop appears once.
	gotE := core.Collect(e.IncidentEdges(a, core.DirBoth))
	if len(gotE) != 3 {
		t.Fatalf("bothE(a) = %v (want 3 edges, loop once)", gotE)
	}
	seen := map[core.ID]int{}
	for _, id := range gotE {
		seen[id]++
	}
	if seen[loop] != 1 {
		t.Fatalf("loop appeared %d times in bothE", seen[loop])
	}
	// Loop visible from both directions.
	if got := ids(e.IncidentEdges(a, core.DirIn)); len(got) != 1 || got[0] != loop {
		t.Fatalf("inE(a) = %v", got)
	}
	if d, err := e.Degree(a, core.DirBoth); err != nil || d != 3 {
		t.Fatalf("degree(a) = %d %v", d, err)
	}
}

func testDegree(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	var outs []core.ID
	for i := 0; i < 6; i++ {
		v, _ := e.AddVertex(nil)
		outs = append(outs, v)
		e.AddEdge(a, v, "o", nil)
	}
	e.AddEdge(outs[0], a, "i", nil)
	if d, _ := e.Degree(a, core.DirOut); d != 6 {
		t.Fatalf("out degree = %d", d)
	}
	if d, _ := e.Degree(a, core.DirIn); d != 1 {
		t.Fatalf("in degree = %d", d)
	}
	if d, _ := e.Degree(a, core.DirBoth); d != 7 {
		t.Fatalf("both degree = %d", d)
	}
}

func testMissingIDs(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	v, _ := e.AddVertex(nil)
	const missing = core.ID(1 << 40)
	if e.HasVertex(missing) || e.HasEdge(missing) {
		t.Fatal("missing ids reported present")
	}
	if _, err := e.VertexProps(missing); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("VertexProps err = %v", err)
	}
	if _, err := e.EdgeProps(missing); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("EdgeProps err = %v", err)
	}
	if _, err := e.EdgeLabel(missing); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("EdgeLabel err = %v", err)
	}
	if _, _, err := e.EdgeEnds(missing); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("EdgeEnds err = %v", err)
	}
	if got, ok := e.VertexProp(missing, "p"); ok || !got.IsNil() {
		t.Fatalf("VertexProp = %v, %v", got, ok)
	}
	if got, ok := e.EdgeProp(missing, "p"); ok || !got.IsNil() {
		t.Fatalf("EdgeProp = %v, %v", got, ok)
	}
	if err := e.SetVertexProp(missing, "p", core.I(1)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("SetVertexProp err = %v", err)
	}
	if err := e.SetEdgeProp(missing, "p", core.I(1)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("SetEdgeProp err = %v", err)
	}
	if err := e.RemoveVertexProp(missing, "p"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("RemoveVertexProp err = %v", err)
	}
	if err := e.RemoveEdgeProp(missing, "p"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("RemoveEdgeProp err = %v", err)
	}
	if err := e.RemoveVertex(missing); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("RemoveVertex err = %v", err)
	}
	if err := e.RemoveEdge(missing); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("RemoveEdge err = %v", err)
	}
	if _, err := e.AddEdge(v, missing, "l", nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("AddEdge to missing dst err = %v", err)
	}
	if _, err := e.AddEdge(missing, v, "l", nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("AddEdge from missing src err = %v", err)
	}
	if _, err := e.Degree(missing, core.DirBoth); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Degree err = %v", err)
	}
}

// SampleGraph is the small fixed graph the battery bulk-loads: 6
// vertices with an int and a string property, 8 edges over 4 labels
// with parallel edges, a 2-cycle and a self-loop.
func SampleGraph() *core.Graph {
	g := core.NewGraph(6, 8)
	for i := 0; i < 6; i++ {
		g.AddVertex(core.Props{"idx": core.I(int64(i)), "name": core.S(fmt.Sprint("v", i))})
	}
	g.AddEdge(0, 1, "a", core.Props{"w": core.I(1)})
	g.AddEdge(1, 2, "a", nil)
	g.AddEdge(2, 3, "b", nil)
	g.AddEdge(3, 0, "b", nil)
	g.AddEdge(0, 2, "c", core.Props{"w": core.I(5)})
	g.AddEdge(4, 5, "a", nil)
	g.AddEdge(5, 4, "a", nil)
	g.AddEdge(4, 4, "loop", nil)
	return g
}

func testBulkLoad(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	g := SampleGraph()
	res, err := e.BulkLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VertexIDs) != 6 || len(res.EdgeIDs) != 8 {
		t.Fatalf("LoadResult sizes = %d,%d", len(res.VertexIDs), len(res.EdgeIDs))
	}
	if n, _ := e.CountVertices(); n != 6 {
		t.Fatalf("CountVertices = %d", n)
	}
	if n, _ := e.CountEdges(); n != 8 {
		t.Fatalf("CountEdges = %d", n)
	}
	for i, vid := range res.VertexIDs {
		v, ok := e.VertexProp(vid, "idx")
		if !ok || v.Int() != int64(i) {
			t.Fatalf("vertex %d props lost: %v %v", i, v, ok)
		}
	}
	for i, eid := range res.EdgeIDs {
		l, err := e.EdgeLabel(eid)
		if err != nil || l != g.EdgeL[i].Label {
			t.Fatalf("edge %d label = %q %v", i, l, err)
		}
		src, dst, _ := e.EdgeEnds(eid)
		if src != res.VertexIDs[g.EdgeL[i].Src] || dst != res.VertexIDs[g.EdgeL[i].Dst] {
			t.Fatalf("edge %d endpoints wrong", i)
		}
	}
	if w, ok := e.EdgeProp(res.EdgeIDs[4], "w"); !ok || w != core.I(5) {
		t.Fatalf("edge prop lost: %v %v", w, ok)
	}
	// Topology check: out(0) = {1, 2}.
	got := ids(e.Neighbors(res.VertexIDs[0], core.DirOut))
	want := ids(core.SliceIter([]core.ID{res.VertexIDs[1], res.VertexIDs[2]}))
	if !sameIDs(got, want) {
		t.Fatalf("out(v0) = %v, want %v", got, want)
	}
}

func testPropertyIndex(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	// scan is the same history on an engine that never builds the index:
	// the reference sequence for every indexed lookup below.
	scan := newEngine()
	defer scan.Close()
	both := []core.Engine{scan, e}
	var want []core.ID
	for i := 0; i < 30; i++ {
		var v core.ID
		for _, x := range both {
			v, _ = x.AddVertex(core.Props{"mod": core.I(int64(i % 3))})
		}
		if i%3 == 1 {
			want = append(want, v)
		}
	}
	err := e.BuildVertexPropIndex("mod")
	if errors.Is(err, core.ErrUnsupported) {
		t.Skip("engine has no user-controlled attribute indexes (as in the paper)")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasVertexPropIndex("mod") {
		t.Fatal("index not reported")
	}
	sameAsScan := func(when string) {
		t.Helper()
		for m := int64(0); m < 3; m++ {
			got := core.Collect(e.VerticesByProp("mod", core.I(m)))
			ref := core.Collect(scan.VerticesByProp("mod", core.I(m)))
			if !sameIDs(got, ref) {
				t.Fatalf("%s: indexed mod=%d yields %v, scan path yields %v", when, m, got, ref)
			}
		}
	}
	got := ids(e.VerticesByProp("mod", core.I(1)))
	if !sameIDs(got, ids(core.SliceIter(want))) {
		t.Fatalf("indexed search = %v, want %v", got, want)
	}
	sameAsScan("after build")
	// Index must track subsequent mutations.
	var v core.ID
	for _, x := range both {
		v, _ = x.AddVertex(core.Props{"mod": core.I(1)})
		x.SetVertexProp(want[0], "mod", core.I(2))
		x.RemoveVertex(want[1])
		x.RemoveVertexProp(want[2], "mod")
	}
	got = ids(e.VerticesByProp("mod", core.I(1)))
	want2 := append([]core.ID{v}, want[3:]...)
	if !sameIDs(got, ids(core.SliceIter(want2))) {
		t.Fatalf("indexed search after mutations = %v, want %v", got, want2)
	}
	sameAsScan("after mutations")
	// An edge carrying the indexed name must leave the vertex index
	// alone while its property is set and removed.
	var edges []core.ID
	for _, x := range both {
		ed, err := x.AddEdge(v, want[3], "l", core.Props{"mod": core.I(1)})
		if err != nil {
			t.Fatal(err)
		}
		x.SetEdgeProp(ed, "mod", core.I(2))
		edges = append(edges, ed)
	}
	sameAsScan("after edge property set")
	for i, x := range both {
		x.RemoveEdgeProp(edges[i], "mod")
	}
	sameAsScan("after edge property removal")
	// Building an index that exists is a no-op: it must not forget the
	// mutations applied since the first build.
	if err := e.BuildVertexPropIndex("mod"); err != nil {
		t.Fatal(err)
	}
	sameAsScan("after second build")
}

func testSpaceUsage(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	empty := e.SpaceUsage().Total
	g := SampleGraph()
	if _, err := e.BulkLoad(g); err != nil {
		t.Fatal(err)
	}
	loaded := e.SpaceUsage()
	if loaded.Total <= empty {
		t.Fatalf("space did not grow on load: %d -> %d", empty, loaded.Total)
	}
	if len(loaded.Breakdown) == 0 {
		t.Fatal("space report has no breakdown")
	}
	var sum int64
	for _, b := range loaded.Breakdown {
		sum += b
	}
	if sum != loaded.Total {
		t.Fatalf("breakdown sums to %d, total %d", sum, loaded.Total)
	}
}

// testClosed calls every core.Engine method on a loaded engine after
// Close. None may panic; reads see an empty graph; AddVertex, AddEdge
// and BulkLoad return core.ErrClosed; a second Close returns nil.
func testClosed(t *testing.T, newEngine func() core.Engine) {
	fresh := newEngine()
	emptySpace := fresh.SpaceUsage().Total
	fresh.Close()

	e := newEngine()
	g := SampleGraph()
	res, err := e.BulkLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BuildVertexPropIndex("name"); err != nil && !errors.Is(err, core.ErrUnsupported) {
		t.Fatal(err)
	}
	meta := e.Meta()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	v, ed := res.VertexIDs[0], res.EdgeIDs[0]

	if e.Meta() != meta {
		t.Errorf("Meta after Close = %+v, want %+v", e.Meta(), meta)
	}
	if _, err := e.AddVertex(core.Props{"name": core.S("x")}); !errors.Is(err, core.ErrClosed) {
		t.Errorf("AddVertex err = %v, want ErrClosed", err)
	}
	if _, err := e.AddEdge(v, v, "a", nil); !errors.Is(err, core.ErrClosed) {
		t.Errorf("AddEdge err = %v, want ErrClosed", err)
	}
	if _, err := e.BulkLoad(g); !errors.Is(err, core.ErrClosed) {
		t.Errorf("BulkLoad err = %v, want ErrClosed", err)
	}

	if e.HasVertex(v) || e.HasEdge(ed) {
		t.Error("closed engine still holds its elements")
	}
	notFound := []struct {
		name string
		err  error
	}{
		{"VertexProps", second(e.VertexProps(v))},
		{"EdgeProps", second(e.EdgeProps(ed))},
		{"EdgeLabel", second(e.EdgeLabel(ed))},
		{"EdgeEnds", third(e.EdgeEnds(ed))},
		{"SetVertexProp", e.SetVertexProp(v, "name", core.S("y"))},
		{"SetEdgeProp", e.SetEdgeProp(ed, "w", core.I(2))},
		{"RemoveVertexProp", e.RemoveVertexProp(v, "name")},
		{"RemoveEdgeProp", e.RemoveEdgeProp(ed, "w")},
		{"RemoveEdge", e.RemoveEdge(ed)},
		{"RemoveVertex", e.RemoveVertex(v)},
		{"Degree", second(e.Degree(v, core.DirBoth))},
	}
	for _, c := range notFound {
		if !errors.Is(c.err, core.ErrNotFound) {
			t.Errorf("%s err = %v, want ErrNotFound", c.name, c.err)
		}
	}
	if _, ok := e.VertexProp(v, "name"); ok {
		t.Error("VertexProp found on a closed engine")
	}
	if _, ok := e.EdgeProp(ed, "w"); ok {
		t.Error("EdgeProp found on a closed engine")
	}
	if n, err := e.CountVertices(); n != 0 || err != nil {
		t.Errorf("CountVertices = %d, %v; want 0", n, err)
	}
	if n, err := e.CountEdges(); n != 0 || err != nil {
		t.Errorf("CountEdges = %d, %v; want 0", n, err)
	}
	scans := []struct {
		name string
		it   core.Iter[core.ID]
	}{
		{"Vertices", e.Vertices()},
		{"Edges", e.Edges()},
		{"VerticesByProp", e.VerticesByProp("idx", core.I(0))},
		{"EdgesByProp", e.EdgesByProp("w", core.I(1))},
		{"EdgesByLabel", e.EdgesByLabel("a")},
		{"Neighbors", e.Neighbors(v, core.DirBoth)},
		{"IncidentEdges", e.IncidentEdges(v, core.DirBoth, "a")},
	}
	for _, c := range scans {
		if got := core.Collect(c.it); len(got) != 0 {
			t.Errorf("%s = %v on a closed engine", c.name, got)
		}
	}
	if e.HasVertexPropIndex("name") {
		t.Error("index survives Close")
	}
	if got := e.SpaceUsage().Total; got != emptySpace {
		t.Errorf("SpaceUsage after Close = %d, want an empty engine's %d", got, emptySpace)
	}
	if err := e.BuildVertexPropIndex("idx"); err != nil && !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("BuildVertexPropIndex err = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func second[T any](_ T, err error) error { return err }

func third[T, U any](_ T, _ U, err error) error { return err }

func testMeta(t *testing.T, newEngine func() core.Engine) {
	e := newEngine()
	defer e.Close()
	m := e.Meta()
	if m.Name == "" || m.Storage == "" || m.EdgeTraversal == "" || m.Gremlin == "" {
		t.Fatalf("incomplete meta: %+v", m)
	}
	if m.Kind != core.KindNative && m.Kind != core.KindHybrid {
		t.Fatalf("bad kind %q", m.Kind)
	}
}

// testRandomizedAgainstReference loads a random graph and checks every
// traversal surface against a reference adjacency computed from the
// dataset, then applies random mutations and re-checks.
func testRandomizedAgainstReference(t *testing.T, newEngine func() core.Engine) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		e := newEngine()
		nv := 8 + rng.Intn(20)
		ne := 2 * nv
		g := core.NewGraph(nv, ne)
		for i := 0; i < nv; i++ {
			g.AddVertex(core.Props{"n": core.I(int64(i))})
		}
		labels := []string{"x", "y", "z"}
		for i := 0; i < ne; i++ {
			g.AddEdge(rng.Intn(nv), rng.Intn(nv), labels[rng.Intn(3)], nil)
		}
		res, err := e.BulkLoad(g)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, e, g, res)

		// Random deletions, then re-check.
		alive := make([]bool, ne)
		for i := range alive {
			alive[i] = true
		}
		for i := 0; i < ne/4; i++ {
			k := rng.Intn(ne)
			if alive[k] {
				if err := e.RemoveEdge(res.EdgeIDs[k]); err != nil {
					t.Fatal(err)
				}
				alive[k] = false
			}
		}
		g2 := core.NewGraph(nv, ne)
		g2.VProps = g.VProps
		edgeIDs2 := make([]core.ID, 0, ne)
		for i, a := range alive {
			if a {
				g2.EdgeL = append(g2.EdgeL, g.EdgeL[i])
				edgeIDs2 = append(edgeIDs2, res.EdgeIDs[i])
			}
		}
		checkAgainstReference(t, e, g2, &core.LoadResult{VertexIDs: res.VertexIDs, EdgeIDs: edgeIDs2})
		e.Close()
	}
}

func checkAgainstReference(t *testing.T, e core.Engine, g *core.Graph, res *core.LoadResult) {
	t.Helper()
	outRef := make(map[core.ID][]core.ID)
	inRef := make(map[core.ID][]core.ID)
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		s, d := res.VertexIDs[er.Src], res.VertexIDs[er.Dst]
		outRef[s] = append(outRef[s], d)
		inRef[d] = append(inRef[d], s)
	}
	for i, vid := range res.VertexIDs {
		gotOut := ids(e.Neighbors(vid, core.DirOut))
		wantOut := ids(core.SliceIter(outRef[vid]))
		if !sameIDs(gotOut, wantOut) {
			t.Fatalf("vertex %d out = %v, want %v", i, gotOut, wantOut)
		}
		gotIn := ids(e.Neighbors(vid, core.DirIn))
		wantIn := ids(core.SliceIter(inRef[vid]))
		if !sameIDs(gotIn, wantIn) {
			t.Fatalf("vertex %d in = %v, want %v", i, gotIn, wantIn)
		}
		d, err := e.Degree(vid, core.DirOut)
		if err != nil || d != int64(len(outRef[vid])) {
			t.Fatalf("vertex %d out degree = %d (%v), want %d", i, d, err, len(outRef[vid]))
		}
	}
	if n, _ := e.CountEdges(); n != int64(g.NumEdges()) {
		t.Fatalf("CountEdges = %d, want %d", n, g.NumEdges())
	}
}
