package kit

import (
	"maps"
	"slices"

	"repro/internal/core"
)

// Neighbors is core.Engine's Neighbors for an engine whose EdgeEnds
// makes exactly the per-edge read its hop makes: the far endpoint of
// each edge e.IncidentEdges yields. A loop yields id itself.
func Neighbors(e core.Engine, id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	inner := e.IncidentEdges(id, d, labels...)
	return func() (core.ID, bool) {
		eid, ok := inner()
		if !ok {
			return core.NoID, false
		}
		src, dst, err := e.EdgeEnds(eid)
		if err != nil {
			return core.NoID, false
		}
		if src != id {
			return src, true
		}
		return dst, true
	}
}

// Degree is core.Engine's Degree for an engine that counts by walking
// its own IncidentEdges.
func Degree(e core.Engine, id core.ID, d core.Direction) (int64, error) {
	if !e.HasVertex(id) {
		return 0, core.ErrNotFound
	}
	return int64(core.Drain(e.IncidentEdges(id, d))), nil
}

// Lists walks a vertex record's edge-id lists in direction d: out, in,
// or for DirBoth out and then in, without concatenating them. keep
// decides per edge whether to yield it; bothIn is true on the in list
// of a DirBoth walk, where a loop was already yielded from the out list.
func Lists(out, in []core.ID, d core.Direction, keep func(eid core.ID, bothIn bool) bool) core.Iter[core.ID] {
	// One struct holds the position, so the iterator costs one
	// allocation for it and one for the closure.
	var w struct {
		list   []core.ID
		i      int
		bothIn bool
	}
	w.list = out
	if d == core.DirIn {
		w.list = in
	}
	return func() (core.ID, bool) {
		for {
			for w.i < len(w.list) {
				eid := w.list[w.i]
				w.i++
				if keep(eid, w.bothIn) {
					return eid, true
				}
			}
			if d != core.DirBoth || w.bothIn {
				return core.NoID, false
			}
			w.list, w.i, w.bothIn = in, 0, true
		}
	}
}

// ListDegree counts the edges of a vertex record's edge-id lists in
// direction d. A loop sits on both lists, so DirBoth subtracts the in
// list's loops, as loop reports them.
func ListDegree(out, in []core.ID, d core.Direction, loop func(eid core.ID) bool) int64 {
	switch d {
	case core.DirOut:
		return int64(len(out))
	case core.DirIn:
		return int64(len(in))
	}
	n := len(out) + len(in)
	for _, eid := range in {
		if loop(eid) {
			n--
		}
	}
	return int64(n)
}

// Filter resolves an edge-label filter to tokens. With no labels it
// returns nil and true: every edge passes. Otherwise it returns the
// tokens of the labels interned so far, and false when there are none,
// since then no edge can pass. Only a filter with labels allocates.
func (t *Tokens) Filter(labels []string) ([]uint32, bool) {
	if len(labels) == 0 {
		return nil, true
	}
	toks := make([]uint32, 0, len(labels))
	for _, l := range labels {
		if tok, ok := t.byName[l]; ok {
			toks = append(toks, tok)
		}
	}
	return toks, len(toks) > 0
}

// Match reports whether token tok passes a filter from Tokens.Filter.
func Match(toks []uint32, tok uint32) bool {
	return toks == nil || slices.Contains(toks, tok)
}

// VerticesByProp is core.Engine's VerticesByProp for an engine with a
// PropIndex: the index's answer when name is indexed, else a scan of
// e.Vertices comparing each vertex's property.
func VerticesByProp(e core.Engine, idx *PropIndex, name string, v core.Value) core.Iter[core.ID] {
	if ids, ok := idx.Lookup(name, v); ok {
		return core.SliceIter(ids)
	}
	return core.FilterIter(e.Vertices(), func(id core.ID) bool {
		got, ok := e.VertexProp(id, name)
		return ok && got.Compare(v) == 0
	})
}

// EdgesByProp is core.Engine's EdgesByProp as a scan of e.Edges
// comparing each edge's property.
func EdgesByProp(e core.Engine, name string, v core.Value) core.Iter[core.ID] {
	return core.FilterIter(e.Edges(), func(id core.ID) bool {
		got, ok := e.EdgeProp(id, name)
		return ok && got.Compare(v) == 0
	})
}

// DeclaredIndexes supplies core.Engine's two index methods to an engine
// that accepts an index declaration but keeps its search path (the
// paper measured no difference on such engines). Embed it in the store.
type DeclaredIndexes struct{ names map[string]bool }

// BuildVertexPropIndex implements core.Engine.
func (x *DeclaredIndexes) BuildVertexPropIndex(name string) error {
	if x.names == nil {
		x.names = make(map[string]bool)
	}
	x.names[name] = true
	return nil
}

// Clone returns an independent copy of the declarations.
func (x *DeclaredIndexes) Clone() DeclaredIndexes { return DeclaredIndexes{maps.Clone(x.names)} }

// HasVertexPropIndex implements core.Engine.
func (x *DeclaredIndexes) HasVertexPropIndex(name string) bool { return x.names[name] }
