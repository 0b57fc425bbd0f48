// Package kit holds what every engine architecture needs and none of
// them differs in, so that an engine package is its physical design
// (Table 1 of the paper): the token dictionary (Tokens), the hash
// attribute index (PropIndex), a declared index that changes no search
// path (DeclaredIndexes), the per-item load (LoadPerItem), edge-id
// removal (RemoveID), the copy capability every engine has (Cloner),
// and the core.Engine method bodies derivable from
// an engine's other methods — Neighbors, Degree, the walk and degree
// over a record's edge-id lists (Lists, ListDegree), label filters
// (Tokens.Filter, Match) and property searches (VerticesByProp,
// EdgesByProp). A derivation makes exactly the reads the engine's own
// methods make. Nothing whose cost the paper measures — record
// layouts, adjacency access, document encode/decode, REST hops,
// retention budgets — may move here.
//
// The types are concrete and their zero values are ready to use, so an
// engine holds them by value.
package kit

import (
	"maps"
	"slices"

	"repro/internal/core"
)

// Tokens is an append-only string↔uint32 dictionary, as label, type and
// property-key token stores are: a name gets the next id the first time
// it is interned and keeps it forever.
type Tokens struct {
	byName map[string]uint32
	names  []string
}

// Intern returns name's token, assigning the next one on first
// encounter.
func (t *Tokens) Intern(name string) uint32 {
	if id, ok := t.byName[name]; ok {
		return id
	}
	if t.byName == nil {
		t.byName = make(map[string]uint32)
	}
	id := uint32(len(t.names))
	t.byName[name] = id
	t.names = append(t.names, name)
	return id
}

// Lookup returns name's token without assigning one.
func (t *Tokens) Lookup(name string) (uint32, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// Name returns the string interned as id.
func (t *Tokens) Name(id uint32) string { return t.names[id] }

// Len returns the number of tokens assigned, which is also the next id.
func (t *Tokens) Len() int { return len(t.names) }

// Reserve pre-sizes an empty dictionary for n names; one that has
// already interned anything is left alone (ids are first-encounter).
func (t *Tokens) Reserve(n int) {
	if n <= 0 || len(t.names) > 0 {
		return
	}
	t.byName = make(map[string]uint32, n)
	t.names = make([]string, 0, n)
}

// Clone returns an independent copy of the dictionary.
func (t *Tokens) Clone() Tokens {
	return Tokens{byName: maps.Clone(t.byName), names: append(make([]string, 0, cap(t.names)), t.names...)}
}

// Bytes is the dictionary's space accounting: each name plus a fixed
// per-entry overhead.
func (t *Tokens) Bytes() int64 {
	var n int64
	for _, s := range t.names {
		n += int64(len(s)) + 24
	}
	return n
}

// PropIndex is the user-controlled hash attribute index on vertex
// properties (Section 6.4, "Effect of Indexing"): per indexed property
// name, value → set of vertex ids.
type PropIndex struct {
	names  []string // build order
	byName map[string]map[core.Value]map[core.ID]struct{}
}

// Has reports whether an index on name was built.
func (x *PropIndex) Has(name string) bool {
	_, ok := x.byName[name]
	return ok
}

// Names returns the indexed property names in build order. The slice is
// shared; callers must not modify it.
func (x *PropIndex) Names() []string { return x.names }

// Clone returns an independent copy of the indexes: every value's
// member set is copied.
func (x *PropIndex) Clone() PropIndex {
	c := PropIndex{names: append(make([]string, 0, cap(x.names)), x.names...)}
	if x.byName != nil {
		c.byName = make(map[string]map[core.Value]map[core.ID]struct{}, len(x.byName))
	}
	for name, idx := range x.byName {
		cidx := make(map[core.Value]map[core.ID]struct{}, len(idx))
		for v, set := range idx {
			cidx[v] = maps.Clone(set)
		}
		c.byName[name] = cidx
	}
	return c
}

// Build creates the index on name from a scan of the engine's own
// vertices and property reads, and reports whether it did: building an
// index that exists is a no-op.
func (x *PropIndex) Build(name string, vertices func() core.Iter[core.ID], prop func(core.ID, string) (core.Value, bool)) bool {
	if x.Has(name) {
		return false
	}
	if x.byName == nil {
		x.byName = make(map[string]map[core.Value]map[core.ID]struct{})
	}
	x.byName[name] = make(map[core.Value]map[core.ID]struct{})
	x.names = append(x.names, name)
	it := vertices()
	for id, ok := it(); ok; id, ok = it() {
		if v, has := prop(id, name); has {
			x.Add(name, v, id)
		}
	}
	return true
}

// Add records that vertex id has value v for name; a no-op when name is
// not indexed.
func (x *PropIndex) Add(name string, v core.Value, id core.ID) {
	idx, ok := x.byName[name]
	if !ok {
		return
	}
	set := idx[v]
	if set == nil {
		set = make(map[core.ID]struct{})
		idx[v] = set
	}
	set[id] = struct{}{}
}

// Remove drops vertex id from value v's set, and the value's entry with
// its last member.
func (x *PropIndex) Remove(name string, v core.Value, id core.ID) {
	idx := x.byName[name]
	if set := idx[v]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(idx, v)
		}
	}
}

// Lookup returns the vertices whose name equals v, and whether name is
// indexed at all. Ids come back ascending — the sequence every engine's
// scan path yields — so indexed and unindexed lookups are
// interchangeable downstream.
func (x *PropIndex) Lookup(name string, v core.Value) ([]core.ID, bool) {
	idx, ok := x.byName[name]
	if !ok {
		return nil, false
	}
	set := idx[v]
	out := make([]core.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out, true
}

// Bytes is the index space accounting: a fixed header per index, each
// distinct value once, and a fixed cost per member.
func (x *PropIndex) Bytes() int64 {
	var n int64
	for _, idx := range x.byName {
		n += 48
		for v, set := range idx {
			n += v.Bytes() + int64(len(set))*16
		}
	}
	return n
}

// Cloner is the copy capability of every engine: Clone returns an
// independent engine in the receiver's state, or core.ErrUnsupported
// when it cannot make one. It is not part of core.Engine, so a
// decorator that does not forward it hides it; this is its one
// declaration.
type Cloner interface {
	Clone() (core.Engine, error)
}

// LoadPerItem is the bulk load of engines whose load path is the
// per-item API: every vertex through AddVertex, then every edge through
// AddEdge.
func LoadPerItem(e core.Engine, g *core.Graph) (*core.LoadResult, error) {
	res := core.NewLoadResult(g)
	for i := range g.VProps {
		id, err := e.AddVertex(g.VProps[i])
		if err != nil {
			return nil, err
		}
		res.VertexIDs[i] = id
	}
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		id, err := e.AddEdge(res.VertexIDs[er.Src], res.VertexIDs[er.Dst], er.Label, er.Props)
		if err != nil {
			return nil, err
		}
		res.EdgeIDs[i] = id
	}
	return res, nil
}

// RemoveID drops the first occurrence of id from s in place and returns
// the shortened slice, or s unchanged when id is absent. It compares
// without a callback: slices.DeleteFunc's per-element predicate call
// made an edge removal from a 2,000-id list several times slower.
func RemoveID(s []core.ID, id core.ID) []core.ID {
	if i := slices.Index(s, id); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}
