package orient

import (
	"repro/internal/core"
	"repro/internal/engines/kit"
)

// --- vertex CRUD ---

// AddVertex implements core.Engine: appending a document, the fast path
// Figure 3(b) shows.
func (e *Engine) AddVertex(props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	d := &vertexDoc{props: props.Clone()}
	pos := e.vcluster.add(e.encodeVertex(d))
	id := makeRID(vertexCluster, pos)
	for k, v := range props {
		e.vindex.Add(k, v, id)
	}
	return id, nil
}

// HasVertex implements core.Engine.
func (e *Engine) HasVertex(id core.ID) bool {
	c, pos := splitRID(id)
	if c != vertexCluster {
		return false
	}
	_, ok := e.vcluster.pmap.Get(pos)
	return ok
}

// VertexProps implements core.Engine.
func (e *Engine) VertexProps(id core.ID) (core.Props, error) {
	d, ok := e.readVertex(id)
	if !ok {
		return nil, core.ErrNotFound
	}
	return d.props, nil
}

// VertexProp implements core.Engine.
func (e *Engine) VertexProp(id core.ID, name string) (core.Value, bool) {
	d, ok := e.readVertex(id)
	if !ok {
		return core.Nil, false
	}
	v, ok := d.props[name]
	return v, ok
}

// rewriteVertex re-encodes and relocates the document.
func (e *Engine) rewriteVertex(id core.ID, d *vertexDoc) {
	_, pos := splitRID(id)
	e.vcluster.rewrite(pos, e.encodeVertex(d))
}

// SetVertexProp implements core.Engine: document rewrite at the tail.
func (e *Engine) SetVertexProp(id core.ID, name string, v core.Value) error {
	d, ok := e.readVertex(id)
	if !ok {
		return core.ErrNotFound
	}
	if old, had := d.props[name]; had {
		e.vindex.Remove(name, old, id)
	}
	if d.props == nil {
		d.props = core.Props{}
	}
	d.props[name] = v
	e.vindex.Add(name, v, id)
	e.rewriteVertex(id, d)
	return nil
}

// RemoveVertexProp implements core.Engine.
func (e *Engine) RemoveVertexProp(id core.ID, name string) error {
	d, ok := e.readVertex(id)
	if !ok {
		return core.ErrNotFound
	}
	if old, had := d.props[name]; had {
		e.vindex.Remove(name, old, id)
		delete(d.props, name)
		e.rewriteVertex(id, d)
	}
	return nil
}

// RemoveVertex implements core.Engine; cascading is document surgery on
// every adjacent vertex, which is why Figure 3(c) shows this engine's
// node removal degrading with graph structure.
func (e *Engine) RemoveVertex(id core.ID) error {
	d, ok := e.readVertex(id)
	if !ok {
		return core.ErrNotFound
	}
	for _, eid := range append(append([]core.ID(nil), d.out...), d.in...) {
		if e.HasEdge(eid) {
			if err := e.RemoveEdge(eid); err != nil {
				return err
			}
		}
	}
	// Re-read: RemoveEdge rewrote this vertex's lists.
	for _, name := range e.vindex.Names() {
		if v, had := d.props[name]; had {
			e.vindex.Remove(name, v, id)
		}
	}
	_, pos := splitRID(id)
	e.vcluster.free(pos)
	return nil
}

// --- edge CRUD ---

// AddEdge implements core.Engine: one append in the label's cluster plus
// a rewrite of both endpoint documents.
func (e *Engine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	sd, ok := e.readVertex(src)
	if !ok {
		return core.NoID, core.ErrNotFound
	}
	dd, ok := e.readVertex(dst)
	if !ok {
		return core.NoID, core.ErrNotFound
	}
	cid := e.clusterFor(label)
	pos := e.eclusters[cid-1].add(e.encodeEdge(&edgeDoc{src: src, dst: dst, props: props.Clone()}))
	eid := makeRID(cid, pos)
	if src == dst {
		sd.out = append(sd.out, eid)
		sd.in = append(sd.in, eid)
		e.rewriteVertex(src, sd)
		return eid, nil
	}
	sd.out = append(sd.out, eid)
	e.rewriteVertex(src, sd)
	dd.in = append(dd.in, eid)
	e.rewriteVertex(dst, dd)
	return eid, nil
}

// HasEdge implements core.Engine.
func (e *Engine) HasEdge(id core.ID) bool {
	c, pos, ok := e.edgeCluster(id)
	if !ok {
		return false
	}
	_, ok = c.pmap.Get(pos)
	return ok
}

// EdgeLabel implements core.Engine: the label is the cluster identity.
func (e *Engine) EdgeLabel(id core.ID) (string, error) {
	if !e.HasEdge(id) {
		return "", core.ErrNotFound
	}
	c, _ := splitRID(id)
	return e.labels.Name(uint32(c - 1)), nil
}

// EdgeEnds implements core.Engine.
func (e *Engine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	c, pos, ok := e.edgeCluster(id)
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	doc, ok := c.read(pos)
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	src, dst := edgeEndsFast(doc)
	return src, dst, nil
}

// EdgeProps implements core.Engine.
func (e *Engine) EdgeProps(id core.ID) (core.Props, error) {
	d, ok := e.readEdge(id)
	if !ok {
		return nil, core.ErrNotFound
	}
	return d.props, nil
}

// EdgeProp implements core.Engine.
func (e *Engine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	d, ok := e.readEdge(id)
	if !ok {
		return core.Nil, false
	}
	v, ok := d.props[name]
	return v, ok
}

// SetEdgeProp implements core.Engine.
func (e *Engine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	d, ok := e.readEdge(id)
	if !ok {
		return core.ErrNotFound
	}
	if d.props == nil {
		d.props = core.Props{}
	}
	d.props[name] = v
	c, pos, _ := e.edgeCluster(id)
	c.rewrite(pos, e.encodeEdge(d))
	return nil
}

// RemoveEdgeProp implements core.Engine.
func (e *Engine) RemoveEdgeProp(id core.ID, name string) error {
	d, ok := e.readEdge(id)
	if !ok {
		return core.ErrNotFound
	}
	if _, had := d.props[name]; had {
		delete(d.props, name)
		c, pos, _ := e.edgeCluster(id)
		c.rewrite(pos, e.encodeEdge(d))
	}
	return nil
}

// RemoveEdge implements core.Engine.
func (e *Engine) RemoveEdge(id core.ID) error {
	d, ok := e.readEdge(id)
	if !ok {
		return core.ErrNotFound
	}
	if sd, ok := e.readVertex(d.src); ok {
		sd.out = kit.RemoveID(sd.out, id)
		if d.src == d.dst {
			sd.in = kit.RemoveID(sd.in, id)
		}
		e.rewriteVertex(d.src, sd)
	}
	if d.dst != d.src {
		if dd, ok := e.readVertex(d.dst); ok {
			dd.in = kit.RemoveID(dd.in, id)
			e.rewriteVertex(d.dst, dd)
		}
	}
	c, pos, _ := e.edgeCluster(id)
	c.free(pos)
	return nil
}

// --- scans ---

// CountVertices implements core.Engine.
func (e *Engine) CountVertices() (int64, error) {
	n := int64(0)
	e.vcluster.pmap.ScanLive(func(int64) bool { n++; return true })
	return n, nil
}

// CountEdges implements core.Engine.
func (e *Engine) CountEdges() (int64, error) {
	n := int64(0)
	for _, c := range e.eclusters {
		c.pmap.ScanLive(func(int64) bool { n++; return true })
	}
	return n, nil
}

// Vertices implements core.Engine.
func (e *Engine) Vertices() core.Iter[core.ID] {
	var pos int64
	end := e.vcluster.pmap.Len()
	return func() (core.ID, bool) {
		for pos < end {
			p := pos
			pos++
			if _, ok := e.vcluster.pmap.Get(p); ok {
				return makeRID(vertexCluster, p), true
			}
		}
		return core.NoID, false
	}
}

// Edges implements core.Engine: concatenation of the per-label clusters.
func (e *Engine) Edges() core.Iter[core.ID] {
	ci := 0
	var pos int64
	return func() (core.ID, bool) {
		for ci < len(e.eclusters) {
			c := e.eclusters[ci]
			for pos < c.pmap.Len() {
				p := pos
				pos++
				if _, ok := c.pmap.Get(p); ok {
					return makeRID(ci+1, p), true
				}
			}
			ci++
			pos = 0
		}
		return core.NoID, false
	}
}

// VerticesByProp implements core.Engine.
func (e *Engine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	return kit.VerticesByProp(e, &e.vindex, name, v)
}

// EdgesByProp implements core.Engine.
func (e *Engine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	return kit.EdgesByProp(e, name, v)
}

// EdgesByLabel implements core.Engine. The per-label clusters could
// serve this in O(result), but — as the paper observes — the Gremlin
// adapter iterates all edges and filters, so that is what is modelled.
func (e *Engine) EdgesByLabel(label string) core.Iter[core.ID] {
	want, ok := e.clusterOf(label)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.Edges(), func(id core.ID) bool {
		c, _ := splitRID(id)
		return c == want
	})
}

// --- traversal ---

// IncidentEdges implements core.Engine. Label filtering is free: the
// label is encoded in the RID's cluster, so non-matching edges are
// skipped without reading them.
func (e *Engine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	vd, ok := e.readVertex(id)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	toks, ok := e.labels.Filter(labels)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	return kit.Lists(vd.out, vd.in, d, func(eid core.ID, bothIn bool) bool {
		c, _ := splitRID(eid)
		return kit.Match(toks, uint32(c-1)) && !(bothIn && e.isLoop(eid))
	})
}

// Neighbors implements core.Engine.
func (e *Engine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return kit.Neighbors(e, id, d, labels...)
}

// Degree implements core.Engine: list lengths from the vertex document,
// with loops deduplicated.
func (e *Engine) Degree(id core.ID, d core.Direction) (int64, error) {
	vd, ok := e.readVertex(id)
	if !ok {
		return 0, core.ErrNotFound
	}
	return kit.ListDegree(vd.out, vd.in, d, e.isLoop), nil
}

// isLoop reports whether edge eid is a self-loop, reading only the
// endpoint prefix of its document.
func (e *Engine) isLoop(eid core.ID) bool {
	src, dst, err := e.EdgeEnds(eid)
	return err == nil && src == dst
}

// --- index / bulk / lifecycle ---

// BuildVertexPropIndex implements core.Engine.
func (e *Engine) BuildVertexPropIndex(name string) error {
	e.vindex.Build(name, e.Vertices, e.VertexProp)
	return nil
}

// HasVertexPropIndex implements core.Engine.
func (e *Engine) HasVertexPropIndex(name string) bool { return e.vindex.Has(name) }

// BulkLoad implements core.Engine through the implementation-specific
// script path the paper had to use (the Gremlin path performed per-edge
// bookkeeping per label): edge documents are written first, then each
// vertex document exactly once with its full RID lists.
func (e *Engine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	if e.closed {
		return nil, core.ErrClosed
	}
	e.CapturePlanStats(g)
	res := core.NewLoadResult(g)
	// Vertex RIDs are dense positions assigned in order.
	base := e.vcluster.pmap.Len()
	for i := range res.VertexIDs {
		res.VertexIDs[i] = makeRID(vertexCluster, base+int64(i))
	}
	// The per-vertex RIDBAG lists are carved out of two shared arenas,
	// pre-sized from the CSR snapshot's degree prefix sums: one edge
	// contributes exactly one out- and one in-slot, so the appends
	// below never reallocate. Full-capacity sub-slices keep appends
	// inside each vertex's own range.
	snap := g.Snapshot()
	outs := make([][]core.ID, g.NumVertices())
	ins := make([][]core.ID, g.NumVertices())
	outArena := make([]core.ID, g.NumEdges())
	inArena := make([]core.ID, g.NumEdges())
	var oo, io int
	for v := range outs {
		od, id := snap.OutDegree(v), snap.InDegree(v)
		outs[v] = outArena[oo : oo : oo+od]
		ins[v] = inArena[io : io : io+id]
		oo += od
		io += id
	}
	// Create each label's cluster up front (first-encounter order, which
	// fixes the cluster-id part of the edge RIDs) and reserve its
	// position map to the exact row count from the snapshot's per-label
	// slices, so the edge loop below never regrows a map.
	for i := range g.EdgeL {
		e.clusterFor(g.EdgeL[i].Label)
	}
	for ci := range e.eclusters {
		if li, ok := snap.LabelIndex(e.labels.Name(uint32(ci))); ok {
			e.eclusters[ci].pmap.Reserve(int64(snap.LabelEdgeCount(li)))
		}
	}
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		cid := e.clusterFor(er.Label)
		pos := e.eclusters[cid-1].add(e.encodeEdge(&edgeDoc{
			src:   res.VertexIDs[er.Src],
			dst:   res.VertexIDs[er.Dst],
			props: er.Props,
		}))
		eid := makeRID(cid, pos)
		res.EdgeIDs[i] = eid
		outs[er.Src] = append(outs[er.Src], eid)
		ins[er.Dst] = append(ins[er.Dst], eid)
	}
	for i := range g.VProps {
		pos := e.vcluster.add(e.encodeVertex(&vertexDoc{
			out:   outs[i],
			in:    ins[i],
			props: g.VProps[i],
		}))
		if got := makeRID(vertexCluster, pos); got != res.VertexIDs[i] {
			return nil, errRIDMismatch
		}
	}
	return res, nil
}

var errRIDMismatch = ridErr("orient: bulk load RID assignment out of sync")

type ridErr string

func (e ridErr) Error() string { return string(e) }

// SpaceUsage implements core.Engine.
func (e *Engine) SpaceUsage() core.SpaceReport {
	var r core.SpaceReport
	r.Add("vertex-cluster", e.vcluster.bytes())
	var eb int64
	for _, c := range e.eclusters {
		eb += c.bytes() + 96 // per-cluster file overhead
	}
	r.Add("edge-clusters", eb)
	r.Add("sbtree-indexes", e.vindex.Bytes())
	r.Add("schema", e.propKeys.Bytes()+e.labels.Bytes())
	return r
}

// Clone returns an independent engine in e's state: a copy of every
// cluster, dictionary and index. Writes into either engine never reach
// the other.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{store: e.store.clone(), closed: e.closed}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

func (s *store) clone() store {
	c := store{
		vcluster:  s.vcluster.clone(),
		eclusters: make([]*cluster, len(s.eclusters), cap(s.eclusters)),
		labels:    s.labels.Clone(),
		propKeys:  s.propKeys.Clone(),
		vindex:    s.vindex.Clone(),
		scratch:   make([]byte, 0, cap(s.scratch)),
	}
	for i, cl := range s.eclusters {
		c.eclusters[i] = cl.clone()
	}
	return c
}

// Close implements core.Engine: the clusters and the indexes go.
func (e *Engine) Close() error {
	e.store, e.closed = newStore(), true
	e.ReleasePlanStats()
	return nil
}
