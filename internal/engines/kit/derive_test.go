package kit

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

type stubEdge struct {
	src, dst core.ID
	label    uint32
	props    core.Props
}

// stub is a hand-built engine holding the methods the derivations call;
// its IncidentEdges is the list walk arango and orient make.
type stub struct {
	core.Engine // nil: calling any other method panics

	labels    Tokens
	vprops    map[core.ID]core.Props
	edges     map[core.ID]stubEdge
	out, in   map[core.ID][]core.ID
	propReads int
}

// newStub builds vertices 1–3 and edges 10–14: 10 and 11 are parallel
// 1→2 edges, 12 is a loop on 1.
func newStub() *stub {
	s := &stub{
		vprops: map[core.ID]core.Props{
			1: {"k": core.S("x")}, 2: {"k": core.S("y")}, 3: {"k": core.S("x")},
		},
		edges: map[core.ID]stubEdge{},
		out:   map[core.ID][]core.ID{},
		in:    map[core.ID][]core.ID{},
	}
	for _, e := range []struct {
		id, src, dst core.ID
		label        string
		w            int64
	}{
		{10, 1, 2, "a", 1}, {11, 1, 2, "a", 2}, {12, 1, 1, "b", 1}, {13, 3, 1, "b", 2}, {14, 2, 3, "a", 3},
	} {
		s.edges[e.id] = stubEdge{e.src, e.dst, s.labels.Intern(e.label), core.Props{"w": core.I(e.w)}}
		s.out[e.src] = append(s.out[e.src], e.id)
		s.in[e.dst] = append(s.in[e.dst], e.id)
	}
	return s
}

func (s *stub) HasVertex(id core.ID) bool { _, ok := s.vprops[id]; return ok }

func (s *stub) isLoop(eid core.ID) bool { return s.edges[eid].src == s.edges[eid].dst }

func (s *stub) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	toks, ok := s.labels.Filter(labels)
	if !s.HasVertex(id) || !ok {
		return core.EmptyIter[core.ID]()
	}
	return Lists(s.out[id], s.in[id], d, func(eid core.ID, bothIn bool) bool {
		return Match(toks, s.edges[eid].label) && !(bothIn && s.isLoop(eid))
	})
}

func (s *stub) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	e, ok := s.edges[id]
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	return e.src, e.dst, nil
}

func (s *stub) Vertices() core.Iter[core.ID] { return core.SliceIter([]core.ID{1, 2, 3}) }

func (s *stub) Edges() core.Iter[core.ID] { return core.SliceIter([]core.ID{10, 11, 12, 13, 14}) }

func (s *stub) VertexProp(id core.ID, name string) (core.Value, bool) {
	s.propReads++
	v, ok := s.vprops[id][name]
	return v, ok
}

func (s *stub) EdgeProp(id core.ID, name string) (core.Value, bool) {
	v, ok := s.edges[id].props[name]
	return v, ok
}

func collect(it core.Iter[core.ID]) []core.ID {
	var out []core.ID
	for id, ok := it(); ok; id, ok = it() {
		out = append(out, id)
	}
	return out
}

func TestAdjacencyDerivations(t *testing.T) {
	s := newStub()
	for _, c := range []struct {
		name       string
		id         core.ID
		d          core.Direction
		labels     []string
		edges, nbr []core.ID
	}{
		{"out, parallel and loop", 1, core.DirOut, nil, []core.ID{10, 11, 12}, []core.ID{2, 2, 1}},
		{"in, loop", 1, core.DirIn, nil, []core.ID{12, 13}, []core.ID{1, 3}},
		{"both, loop once", 1, core.DirBoth, nil, []core.ID{10, 11, 12, 13}, []core.ID{2, 2, 1, 3}},
		{"both, label", 1, core.DirBoth, []string{"b"}, []core.ID{12, 13}, []core.ID{1, 3}},
		{"out, known and unknown label", 1, core.DirOut, []string{"zz", "a"}, []core.ID{10, 11}, []core.ID{2, 2}},
		{"both, unknown label", 1, core.DirBoth, []string{"zz"}, nil, nil},
		{"both, no loop", 2, core.DirBoth, nil, []core.ID{14, 10, 11}, []core.ID{3, 1, 1}},
		{"in, parallel", 2, core.DirIn, []string{"a"}, []core.ID{10, 11}, []core.ID{1, 1}},
		{"both, one each way", 3, core.DirBoth, nil, []core.ID{13, 14}, []core.ID{1, 2}},
		{"missing vertex", 9, core.DirBoth, nil, nil, nil},
	} {
		if got := collect(s.IncidentEdges(c.id, c.d, c.labels...)); !slices.Equal(got, c.edges) {
			t.Errorf("%s: Lists walk = %v, want %v", c.name, got, c.edges)
		}
		if got := collect(Neighbors(s, c.id, c.d, c.labels...)); !slices.Equal(got, c.nbr) {
			t.Errorf("%s: Neighbors = %v, want %v", c.name, got, c.nbr)
		}
		if len(c.labels) > 0 {
			continue
		}
		deg, err := Degree(s, c.id, c.d)
		if c.id == 9 {
			if !errors.Is(err, core.ErrNotFound) {
				t.Errorf("%s: Degree err = %v, want ErrNotFound", c.name, err)
			}
			continue
		}
		if err != nil || deg != int64(len(c.edges)) {
			t.Errorf("%s: Degree = %d, %v; want %d", c.name, deg, err, len(c.edges))
		}
		if got := ListDegree(s.out[c.id], s.in[c.id], c.d, s.isLoop); got != int64(len(c.edges)) {
			t.Errorf("%s: ListDegree = %d, want %d", c.name, got, len(c.edges))
		}
	}
}

func TestFilter(t *testing.T) {
	var d Tokens
	a, b := d.Intern("a"), d.Intern("b")
	for _, c := range []struct {
		labels []string
		toks   []uint32
		ok     bool
	}{
		{nil, nil, true},
		{[]string{"zz"}, []uint32{}, false},
		{[]string{"b", "zz", "a"}, []uint32{b, a}, true},
	} {
		toks, ok := d.Filter(c.labels)
		if !reflect.DeepEqual(toks, c.toks) || ok != c.ok {
			t.Errorf("Filter(%q) = %v, %v; want %v, %v", c.labels, toks, ok, c.toks, c.ok)
		}
	}
	if !Match(nil, a) || !Match([]uint32{b}, b) || Match([]uint32{b}, a) {
		t.Error("Match disagrees with its filter")
	}
}

func TestPropScans(t *testing.T) {
	s := newStub()
	var idx PropIndex
	want := []core.ID{1, 3}
	// An undeclared index scans, reading every vertex's property.
	if got := collect(VerticesByProp(s, &idx, "k", core.S("x"))); !slices.Equal(got, want) || s.propReads != 3 {
		t.Fatalf("scan = %v after %d reads, want %v after 3", got, s.propReads, want)
	}
	if got := collect(VerticesByProp(s, &idx, "absent", core.S("x"))); got != nil {
		t.Fatalf("scan of an absent property = %v", got)
	}
	idx.Build("k", s.Vertices, s.VertexProp)
	s.propReads = 0
	if got := collect(VerticesByProp(s, &idx, "k", core.S("x"))); !slices.Equal(got, want) || s.propReads != 0 {
		t.Fatalf("index lookup = %v after %d reads, want %v after none", got, s.propReads, want)
	}
	if got := collect(EdgesByProp(s, "w", core.I(1))); !slices.Equal(got, []core.ID{10, 12}) {
		t.Fatalf("EdgesByProp = %v, want [10 12]", got)
	}
}

func TestDeclaredIndexes(t *testing.T) {
	var x DeclaredIndexes
	if x.HasVertexPropIndex("k") {
		t.Fatal("zero DeclaredIndexes has an index")
	}
	if err := x.BuildVertexPropIndex("k"); err != nil || !x.HasVertexPropIndex("k") || x.HasVertexPropIndex("j") {
		t.Fatal("declaration not recorded exactly")
	}
}
