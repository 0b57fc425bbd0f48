package sparksee

import (
	"maps"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/engines/kit"
)

// --- scans ---

// CountVertices implements core.Engine: a container popcount, the
// operation where the paper found Sparksee fastest.
func (e *Engine) CountVertices() (int64, error) { return int64(e.nodes.Len()), nil }

// CountEdges implements core.Engine.
func (e *Engine) CountEdges() (int64, error) { return int64(e.edges.Len()), nil }

func bitmapIter(b *bitmap.Bitmap) core.Iter[core.ID] {
	// Materialize the OIDs: bitmap iteration is callback-based, and the
	// modelled adapter materializes scans anyway.
	return core.SliceIter(idsOf(b))
}

func idsOf(b *bitmap.Bitmap) []core.ID {
	out := make([]core.ID, 0, b.Len())
	b.Iterate(func(x uint64) bool { out = append(out, core.ID(x)); return true })
	return out
}

// Vertices implements core.Engine.
func (e *Engine) Vertices() core.Iter[core.ID] { return e.scan(e.nodes) }

// Edges implements core.Engine.
func (e *Engine) Edges() core.Iter[core.ID] { return e.scan(e.edges) }

// scan is a full-graph scan of the objects in b. Starting one resets
// the Gremlin adapter's retention accounting (each traversal carries
// its own intermediates).
func (e *Engine) scan(b *bitmap.Bitmap) core.Iter[core.ID] {
	e.retained.Store(0)
	return bitmapIter(b)
}

// VerticesByProp implements core.Engine. The value→bitmap structure
// could answer this directly, but the paper measured scans (the adapter
// does not exploit it, and declared user indexes bring "no improvement"
// for this engine), so a scan with per-object value lookups is modelled.
func (e *Engine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	return e.byProp(e.nodes, e.vattrs, name, v)
}

// EdgesByProp implements core.Engine.
func (e *Engine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	return e.byProp(e.edges, e.eattrs, name, v)
}

// byProp scans the objects in b, looking each one up in its kind's
// attribute store for name.
func (e *Engine) byProp(b *bitmap.Bitmap, attrs map[string]*attrStore, name string, v core.Value) core.Iter[core.ID] {
	a := attrs[name]
	if a == nil {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.scan(b), func(id core.ID) bool {
		got, ok := a.vals[uint64(id)]
		return ok && got.Compare(v) == 0
	})
}

// EdgesByLabel implements core.Engine (scan + token compare; see
// VerticesByProp for why the label bitmap is not consulted).
func (e *Engine) EdgesByLabel(label string) core.Iter[core.ID] {
	tok, ok := e.labels.Lookup(label)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.Edges(), func(id core.ID) bool {
		return e.labelOf[uint64(id)] == tok
	})
}

// --- traversal ---

// IncidentEdges implements core.Engine. Label filters are bitmap
// intersections — the one local operation where the paper found
// Sparksee on par with the fastest engines.
func (e *Engine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	if !e.HasVertex(id) {
		return core.EmptyIter[core.ID]()
	}
	oid := uint64(id)
	pick := func(b *bitmap.Bitmap) *bitmap.Bitmap {
		if b == nil {
			return bitmap.New()
		}
		if len(labels) == 0 {
			return b
		}
		acc := bitmap.New()
		for _, l := range labels {
			if tok, ok := e.labels.Lookup(l); ok {
				acc = acc.Or(b.And(e.byLabel[tok]))
			}
		}
		return acc
	}
	switch d {
	case core.DirOut:
		return bitmapIter(pick(e.out[oid]))
	case core.DirIn:
		return bitmapIter(pick(e.in[oid]))
	default:
		// Union dedupes loops (an OID is a set member once).
		return bitmapIter(pick(e.out[oid]).Or(pick(e.in[oid])))
	}
}

// Neighbors implements core.Engine.
func (e *Engine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	inner := e.IncidentEdges(id, d, labels...)
	return func() (core.ID, bool) {
		eid, ok := inner()
		if !ok {
			return core.NoID, false
		}
		src := core.ID(e.srcOf[uint64(eid)])
		if src != id {
			return src, true
		}
		return core.ID(e.dstOf[uint64(eid)]), true
	}
}

// Degree implements core.Engine through the modelled Gremlin adapter:
// the adapter walks the per-label edge bitmaps and retains a decoded
// intermediate per label per call, so graphs with many labels and many
// nodes exhaust the budget mid-scan (the paper's Q28–Q31 failure on all
// Freebase samples). The retention counter is reset by Vertices()/
// Edges(), i.e. per full-graph traversal. A call adds what it retains
// to the counter once, before the budget check.
func (e *Engine) Degree(id core.ID, d core.Direction) (int64, error) {
	if !e.HasVertex(id) {
		return 0, core.ErrNotFound
	}
	oid := uint64(id)
	var deg, retained int64
	count := func(b *bitmap.Bitmap) {
		if b == nil {
			return
		}
		for _, lb := range e.byLabel {
			hits := int64(b.AndLen(lb))
			deg += hits
			retained += 40 + hits*16
		}
	}
	switch d {
	case core.DirOut:
		count(e.out[oid])
	case core.DirIn:
		count(e.in[oid])
	default:
		ob, ib := e.out[oid], e.in[oid]
		switch {
		case ob != nil && ib != nil:
			both := ob.Or(ib)
			retained += both.Bytes()
			count(both)
		case ob != nil:
			count(ob)
		case ib != nil:
			count(ib)
		}
	}
	e.retained.Add(retained)
	if e.retained.Load() > e.memBudget {
		return 0, core.ErrOutOfMemory
	}
	return deg, nil
}

// --- index / bulk / space ---

// BulkLoad implements core.Engine (the engine's Gremlin load path was
// unproblematic in the paper, so this is a plain loop).
func (e *Engine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	if e.closed {
		return nil, core.ErrClosed
	}
	e.CapturePlanStats(g)
	// On a fresh engine the per-edge link maps reach exactly |E|
	// entries and the adjacency-bitmap maps one entry per vertex with
	// that direction — pre-size them from the CSR snapshot so the
	// (deliberately per-item, as in the paper) load path at least pays
	// no incremental map growth.
	if e.nodes.Len() == 0 && e.edges.Len() == 0 {
		snap := g.Snapshot()
		e.srcOf = make(map[uint64]uint64, g.NumEdges())
		e.dstOf = make(map[uint64]uint64, g.NumEdges())
		e.labelOf = make(map[uint64]uint32, g.NumEdges())
		// The snapshot's label table is exactly the label-bitmap set this
		// load creates; tokens still assign in first-encounter order.
		if e.labels.Len() == 0 {
			e.labels.Reserve(len(snap.Labels))
			e.byLabel = make([]*bitmap.Bitmap, 0, len(snap.Labels))
		}
		var nOut, nIn int
		for v, n := 0, g.NumVertices(); v < n; v++ {
			if snap.OutDegree(v) > 0 {
				nOut++
			}
			if snap.InDegree(v) > 0 {
				nIn++
			}
		}
		e.out = make(map[uint64]*bitmap.Bitmap, nOut)
		e.in = make(map[uint64]*bitmap.Bitmap, nIn)
	}
	return kit.LoadPerItem(e, g)
}

// SpaceUsage implements core.Engine.
func (e *Engine) SpaceUsage() core.SpaceReport {
	var r core.SpaceReport
	r.Add("object-bitmaps", e.nodes.Bytes()+e.edges.Bytes())
	var lb int64
	for _, b := range e.byLabel {
		lb += b.Bytes()
	}
	r.Add("label-bitmaps", lb+e.labels.Bytes()+int64(len(e.labelOf))*12)
	var adj int64
	for _, b := range e.out {
		adj += b.Bytes() + 16
	}
	for _, b := range e.in {
		adj += b.Bytes() + 16
	}
	r.Add("relationship-bitmaps", adj+int64(len(e.srcOf)+len(e.dstOf))*16)
	var at int64
	for name, a := range e.vattrs {
		at += int64(len(name)) + a.bytes()
	}
	for name, a := range e.eattrs {
		at += int64(len(name)) + a.bytes()
	}
	r.Add("attribute-maps", at)
	return r
}

// Clone returns an independent engine in e's state: a copy of every
// bitmap and map, the memory budget and the retention count. Writes
// into either engine never reach the other.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{store: e.store.clone(), closed: e.closed, memBudget: e.memBudget}
	c.CopyPlanStats(&e.PlanStatsHolder)
	c.retained.Store(e.retained.Load())
	return c, nil
}

// clone returns an independent copy of the store. Its bitmaps are
// carved from one arena.
func (s *store) clone() store {
	var a bitmap.Arena
	s.eachBitmap(a.Reserve)
	return store{
		nextOID:         s.nextOID,
		nodes:           a.Clone(s.nodes),
		edges:           a.Clone(s.edges),
		srcOf:           maps.Clone(s.srcOf),
		dstOf:           maps.Clone(s.dstOf),
		labelOf:         maps.Clone(s.labelOf),
		byLabel:         cloneSlice(&a, s.byLabel),
		labels:          s.labels.Clone(),
		out:             cloneBitmaps(&a, s.out),
		in:              cloneBitmaps(&a, s.in),
		vattrs:          cloneAttrs(&a, s.vattrs),
		eattrs:          cloneAttrs(&a, s.eattrs),
		DeclaredIndexes: s.DeclaredIndexes.Clone(),
	}
}

// eachBitmap calls fn on every bitmap of the store.
func (s *store) eachBitmap(fn func(*bitmap.Bitmap)) {
	fn(s.nodes)
	fn(s.edges)
	for _, m := range []map[uint64]*bitmap.Bitmap{s.out, s.in} {
		for _, b := range m {
			fn(b)
		}
	}
	for _, b := range s.byLabel {
		fn(b)
	}
	for _, attrs := range []map[string]*attrStore{s.vattrs, s.eattrs} {
		for _, at := range attrs {
			for _, b := range at.byVal {
				fn(b)
			}
		}
	}
}

// cloneBitmaps copies the map and every bitmap in it, inserting each
// key once.
func cloneBitmaps[K comparable](a *bitmap.Arena, m map[K]*bitmap.Bitmap) map[K]*bitmap.Bitmap {
	c := make(map[K]*bitmap.Bitmap, len(m))
	for k, b := range m {
		c[k] = a.Clone(b)
	}
	return c
}

// cloneSlice copies the slice and every bitmap in it.
func cloneSlice(a *bitmap.Arena, s []*bitmap.Bitmap) []*bitmap.Bitmap {
	c := make([]*bitmap.Bitmap, len(s), cap(s))
	for i, b := range s {
		c[i] = a.Clone(b)
	}
	return c
}

// cloneAttrs copies the map and every attribute store in it.
func cloneAttrs(a *bitmap.Arena, m map[string]*attrStore) map[string]*attrStore {
	c := maps.Clone(m)
	for name, at := range c {
		c[name] = &attrStore{vals: maps.Clone(at.vals), byVal: cloneBitmaps(a, at.byVal)}
	}
	return c
}

// Close implements core.Engine: the bitmaps and attribute maps go; the
// memory budget stays, and the retention count restarts.
func (e *Engine) Close() error {
	e.store, e.closed = newStore(), true
	e.ReleasePlanStats()
	e.retained.Store(0)
	return nil
}
