package enginetest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engines/kit"
)

// mutation is one kind of write the micro workload makes.
type mutation struct {
	name string
	do   func(e core.Engine, res *core.LoadResult) error
}

// mutations covers every write of core.Engine, on vertices and edges
// that exist in every graph testClone loads. In this order each applies
// after all the ones before it: the removals come last.
var mutations = []mutation{
	{"AddVertex", func(e core.Engine, _ *core.LoadResult) error {
		return second(e.AddVertex(core.Props{"idx": core.I(99), "name": core.S("new")}))
	}},
	{"AddEdge", func(e core.Engine, res *core.LoadResult) error {
		return second(e.AddEdge(res.VertexIDs[0], res.VertexIDs[1], "a", core.Props{"w": core.I(7)}))
	}},
	{"AddEdgeNewLabel", func(e core.Engine, res *core.LoadResult) error {
		return second(e.AddEdge(res.VertexIDs[2], res.VertexIDs[3], "fresh", nil))
	}},
	{"SetVertexProp", func(e core.Engine, res *core.LoadResult) error {
		return e.SetVertexProp(res.VertexIDs[1], "idx", core.I(42))
	}},
	{"SetVertexPropNewName", func(e core.Engine, res *core.LoadResult) error {
		return e.SetVertexProp(res.VertexIDs[1], "fresh", core.S("x"))
	}},
	{"SetEdgeProp", func(e core.Engine, res *core.LoadResult) error {
		return e.SetEdgeProp(res.EdgeIDs[2], "w", core.I(9))
	}},
	{"RemoveVertexProp", func(e core.Engine, res *core.LoadResult) error {
		return e.RemoveVertexProp(res.VertexIDs[2], "name")
	}},
	{"RemoveEdgeProp", func(e core.Engine, res *core.LoadResult) error {
		return e.RemoveEdgeProp(res.EdgeIDs[0], "w")
	}},
	{"BuildVertexPropIndex", func(e core.Engine, _ *core.LoadResult) error {
		if err := e.BuildVertexPropIndex("name"); !errors.Is(err, core.ErrUnsupported) {
			return err
		}
		return nil
	}},
	{"RemoveEdge", func(e core.Engine, res *core.LoadResult) error { return e.RemoveEdge(res.EdgeIDs[1]) }},
	{"RemoveVertex", func(e core.Engine, res *core.LoadResult) error { return e.RemoveVertex(res.VertexIDs[0]) }},
}

// cloneGraph is a deterministic graph of n vertices and 3n edges over
// four labels, with properties on the vertices and on every third edge:
// at n = 100 the B+Trees of blaze and sqlg have inner nodes.
func cloneGraph(n int) *core.Graph {
	g := core.NewGraph(n, 3*n)
	for i := 0; i < n; i++ {
		g.AddVertex(core.Props{"idx": core.I(int64(i)), "name": core.S(fmt.Sprint("v", i%7))})
	}
	labels := []string{"a", "b", "c", "loop"}
	for i := 0; i < 3*n; i++ {
		var p core.Props
		if i%3 == 0 {
			p = core.Props{"w": core.I(int64(i % 5))}
		}
		src, dst := i%n, (i*7+1)%n
		if i%11 == 0 {
			dst = src
		}
		g.AddEdge(src, dst, labels[i%4], p)
	}
	return g
}

// testClone checks that a clone is an independent copy of a loaded
// engine: it reads like the image, and writes into either reach only
// that engine. The state after a sequence of writes is checked against
// the same writes replayed on a fresh load, comparing what the engines
// answer, not their bytes (encodings may follow map order). An engine
// that refuses with core.ErrUnsupported (a durable store) is skipped.
func testClone(t *testing.T, newEngine func() core.Engine) {
	for _, g := range []*core.Graph{SampleGraph(), cloneGraph(100)} {
		t.Run(fmt.Sprintf("V%d", g.NumVertices()), func(t *testing.T) { testCloneOn(t, newEngine, g) })
	}
}

func testCloneOn(t *testing.T, newEngine func() core.Engine, g *core.Graph) {
	var open []core.Engine
	defer func() {
		for _, e := range open {
			e.Close()
		}
	}()
	// load returns a fresh load of g with ops applied.
	load := func(ops ...func(core.Engine, *core.LoadResult) error) (core.Engine, *core.LoadResult) {
		t.Helper()
		e := newEngine()
		open = append(open, e)
		res, err := e.BulkLoad(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			op(e, res)
		}
		return e, res
	}
	clone := func(e core.Engine) core.Engine {
		t.Helper()
		cl, ok := e.(kit.Cloner)
		if !ok {
			t.Fatalf("%T has no Clone method", e)
		}
		c, err := cl.Clone()
		if errors.Is(err, core.ErrUnsupported) {
			t.Skip("the engine refuses to clone")
		}
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, c)
		return c
	}
	var all []func(core.Engine, *core.LoadResult) error
	for _, m := range mutations {
		all = append(all, m.do)
	}

	image, res := load()
	fresh, _ := load()
	clone(image) // skips the test on an engine that refuses

	t.Run("Reads", func(t *testing.T) {
		sameState(t, clone(image), image, g)
	})
	t.Run("WritesToCloneLeaveImage", func(t *testing.T) {
		for _, m := range mutations {
			c := clone(image)
			if err := m.do(c, res); err != nil {
				t.Fatalf("%s on the clone: %v", m.name, err)
			}
			want, _ := load(m.do)
			sameState(t, c, want, g)
			sameState(t, image, fresh, g)
		}
	})
	t.Run("WritesToImageLeaveClone", func(t *testing.T) {
		img, res := load()
		c := clone(img)
		for _, m := range mutations {
			m.do(img, res)
			sameState(t, c, fresh, g)
		}
		want, _ := load(all...)
		sameState(t, img, want, g)
	})
	t.Run("InterleavedWrites", func(t *testing.T) {
		// The image is written before it is cloned, so the structures
		// the next writes reach have room to grow in place: a clone
		// that shares any of them sees the other engine's write.
		before := []func(core.Engine, *core.LoadResult) error{
			func(e core.Engine, res *core.LoadResult) error {
				return e.SetVertexProp(res.VertexIDs[1], "idx", core.I(100))
			},
			func(e core.Engine, res *core.LoadResult) error {
				return second(e.AddEdge(res.VertexIDs[1], res.VertexIDs[2], "a", nil))
			},
		}
		write := func(val string, dst int) []func(core.Engine, *core.LoadResult) error {
			return []func(core.Engine, *core.LoadResult) error{
				func(e core.Engine, res *core.LoadResult) error {
					return e.SetVertexProp(res.VertexIDs[1], "name", core.S(val))
				},
				func(e core.Engine, res *core.LoadResult) error {
					return second(e.AddEdge(res.VertexIDs[1], res.VertexIDs[dst], "b", core.Props{"w": core.S(val)}))
				},
				func(e core.Engine, res *core.LoadResult) error { return e.RemoveEdge(res.EdgeIDs[0]) },
			}
		}
		img, res := load(before...)
		c := clone(img)
		cw, iw := write("clone", 3), write("image", 4)
		for i := range cw {
			if err := cw[i](c, res); err != nil {
				t.Fatalf("write %d on the clone: %v", i, err)
			}
			if err := iw[i](img, res); err != nil {
				t.Fatalf("write %d on the image: %v", i, err)
			}
		}
		wantC, _ := load(slices.Concat(before, cw)...)
		wantI, _ := load(slices.Concat(before, iw)...)
		sameState(t, c, wantC, g)
		sameState(t, img, wantI, g)
	})
	t.Run("CloseImage", func(t *testing.T) {
		img, res := load()
		c := clone(img)
		if err := img.Close(); err != nil {
			t.Fatal(err)
		}
		sameState(t, c, fresh, g)
		for _, m := range mutations {
			if err := m.do(c, res); err != nil {
				t.Fatalf("%s on the clone of a closed image: %v", m.name, err)
			}
		}
		want, _ := load(all...)
		sameState(t, c, want, g)
	})
}

// sameState fails unless got answers every read of core.Engine as want
// does, and reports the same SpaceUsage. g is the graph both were
// loaded from; its labels and property values are the searches tried.
func sameState(t *testing.T, got, want core.Engine, g *core.Graph) {
	t.Helper()
	check := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: got %v, want %v", what, a, b)
		}
	}
	count := func(f func() (int64, error)) int64 {
		t.Helper()
		n, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	check("CountVertices", count(got.CountVertices), count(want.CountVertices))
	check("CountEdges", count(got.CountEdges), count(want.CountEdges))
	vs, es := ids(want.Vertices()), ids(want.Edges())
	check("Vertices", ids(got.Vertices()), vs)
	check("Edges", ids(got.Edges()), es)
	for _, v := range vs {
		gp, gerr := got.VertexProps(v)
		wp, werr := want.VertexProps(v)
		check(fmt.Sprint("VertexProps ", v), props(gp, gerr), props(wp, werr))
		for _, d := range []core.Direction{core.DirOut, core.DirIn, core.DirBoth} {
			check(fmt.Sprint("Neighbors ", v, d), ids(got.Neighbors(v, d)), ids(want.Neighbors(v, d)))
			check(fmt.Sprint("IncidentEdges ", v, d), ids(got.IncidentEdges(v, d)), ids(want.IncidentEdges(v, d)))
			gd, _ := got.Degree(v, d)
			wd, _ := want.Degree(v, d)
			check(fmt.Sprint("Degree ", v, d), gd, wd)
		}
	}
	for _, id := range es {
		gp, gerr := got.EdgeProps(id)
		wp, werr := want.EdgeProps(id)
		check(fmt.Sprint("EdgeProps ", id), props(gp, gerr), props(wp, werr))
		gl, _ := got.EdgeLabel(id)
		wl, _ := want.EdgeLabel(id)
		check(fmt.Sprint("EdgeLabel ", id), gl, wl)
		gs, gd, _ := got.EdgeEnds(id)
		ws, wd, _ := want.EdgeEnds(id)
		check(fmt.Sprint("EdgeEnds ", id), [2]core.ID{gs, gd}, [2]core.ID{ws, wd})
	}
	labels := map[string]bool{"fresh": true}
	for i := range g.EdgeL {
		labels[g.EdgeL[i].Label] = true
	}
	for l := range labels {
		check("EdgesByLabel "+l, ids(got.EdgesByLabel(l)), ids(want.EdgesByLabel(l)))
	}
	searched := map[string]bool{}
	for i := range g.VProps {
		for name, v := range g.VProps[i] {
			if key := name + "=" + v.String(); !searched[key] {
				searched[key] = true
				check("VerticesByProp "+key, ids(got.VerticesByProp(name, v)), ids(want.VerticesByProp(name, v)))
				check("HasVertexPropIndex "+name, got.HasVertexPropIndex(name), want.HasVertexPropIndex(name))
			}
		}
	}
	for _, v := range []core.Value{core.I(1), core.I(7), core.I(9)} {
		check("EdgesByProp w="+v.String(), ids(got.EdgesByProp("w", v)), ids(want.EdgesByProp("w", v)))
	}
	check("SpaceUsage", got.SpaceUsage(), want.SpaceUsage())
}

// props puts a property read in a comparable form: absent and empty
// property sets are alike.
func props(p core.Props, err error) any {
	if err != nil {
		return err.Error()
	}
	if len(p) == 0 {
		return core.Props{}
	}
	return p
}
