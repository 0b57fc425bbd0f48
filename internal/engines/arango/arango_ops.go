package arango

import (
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/engines/kit"
)

// --- vertex CRUD (each interactive op crosses the REST boundary) ---

// AddVertex implements core.Engine. The write is acknowledged once the
// document is registered in memory (asynchronous durability, as the
// paper notes), so this is fast despite the REST hop. A property set
// JSON cannot carry is refused and nothing is stored.
func (e *Engine) AddVertex(props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	e.call("insert-vertex", core.NoID)
	id := core.ID(e.nextID)
	doc, err := e.encodeVertexDoc(id, props)
	if err != nil {
		return core.NoID, err
	}
	e.nextID++
	e.vdocs[id] = doc
	e.call("insert-vertex-resp", id)
	return id, nil
}

// HasVertex implements core.Engine: a server-side lookup, without a
// REST hop.
func (e *Engine) HasVertex(id core.ID) bool {
	_, ok := e.vdocs[id]
	return ok
}

// VertexProps implements core.Engine.
func (e *Engine) VertexProps(id core.ID) (core.Props, error) {
	e.call("document", id)
	doc, ok := e.vdocs[id]
	if !ok {
		return nil, core.ErrNotFound
	}
	return decodeVertexDoc(doc)
}

// VertexProp implements core.Engine.
func (e *Engine) VertexProp(id core.ID, name string) (core.Value, bool) {
	p, err := e.VertexProps(id)
	if err != nil {
		return core.Nil, false
	}
	v, ok := p[name]
	return v, ok
}

// SetVertexProp implements core.Engine: read-modify-write of the whole
// document (documents are self-contained).
func (e *Engine) SetVertexProp(id core.ID, name string, v core.Value) error {
	e.call("update-vertex", id, name)
	doc, ok := e.vdocs[id]
	if !ok {
		return core.ErrNotFound
	}
	p, err := decodeVertexDoc(doc)
	if err != nil {
		return err
	}
	if p == nil {
		p = core.Props{}
	}
	p[name] = v
	if doc, err = e.encodeVertexDoc(id, p); err != nil {
		return err
	}
	e.vdocs[id] = doc
	return nil
}

// RemoveVertexProp implements core.Engine.
func (e *Engine) RemoveVertexProp(id core.ID, name string) error {
	e.call("unset-vertex", id, name)
	doc, ok := e.vdocs[id]
	if !ok {
		return core.ErrNotFound
	}
	p, err := decodeVertexDoc(doc)
	if err != nil {
		return err
	}
	delete(p, name)
	if doc, err = e.encodeVertexDoc(id, p); err != nil {
		return err
	}
	e.vdocs[id] = doc
	return nil
}

// RemoveVertex implements core.Engine.
func (e *Engine) RemoveVertex(id core.ID) error {
	e.call("remove-vertex", id)
	if _, ok := e.vdocs[id]; !ok {
		return core.ErrNotFound
	}
	incident := append(append([]core.ID(nil), e.outIdx[id]...), e.inIdx[id]...)
	for _, eid := range incident {
		if _, ok := e.edocs[eid]; ok {
			e.removeEdgeInternal(eid)
		}
	}
	delete(e.vdocs, id)
	delete(e.outIdx, id)
	delete(e.inIdx, id)
	return nil
}

// --- edge CRUD ---

// AddEdge implements core.Engine.
func (e *Engine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	e.call("insert-edge", src)
	if !e.HasVertex(src) || !e.HasVertex(dst) {
		return core.NoID, core.ErrNotFound
	}
	id := core.ID(e.nextID)
	doc, err := e.encodeEdgeDoc(id, src, dst, label, props)
	if err != nil {
		return core.NoID, err
	}
	e.nextID++
	e.edocs[id] = doc
	e.edgeIdx[id] = edgeEntry{src: src, dst: dst, label: e.labels.Intern(label)}
	e.outIdx[src] = append(e.outIdx[src], id)
	e.inIdx[dst] = append(e.inIdx[dst], id)
	e.call("insert-edge-resp", id)
	return id, nil
}

// HasEdge implements core.Engine.
func (e *Engine) HasEdge(id core.ID) bool {
	_, ok := e.edocs[id]
	return ok
}

// EdgeLabel implements core.Engine: served by the hash index.
func (e *Engine) EdgeLabel(id core.ID) (string, error) {
	ent, ok := e.edgeIdx[id]
	if !ok {
		return "", core.ErrNotFound
	}
	return e.labels.Name(ent.label), nil
}

// EdgeEnds implements core.Engine: served by the hash index.
func (e *Engine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	ent, ok := e.edgeIdx[id]
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	return ent.src, ent.dst, nil
}

// EdgeProps implements core.Engine.
func (e *Engine) EdgeProps(id core.ID) (core.Props, error) {
	e.call("document", id)
	doc, ok := e.edocs[id]
	if !ok {
		return nil, core.ErrNotFound
	}
	return decodeEdgeDoc(doc)
}

// EdgeProp implements core.Engine.
func (e *Engine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	p, err := e.EdgeProps(id)
	if err != nil {
		return core.Nil, false
	}
	v, ok := p[name]
	return v, ok
}

// SetEdgeProp implements core.Engine.
func (e *Engine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	e.call("update-edge", id, name)
	doc, ok := e.edocs[id]
	if !ok {
		return core.ErrNotFound
	}
	p, err := decodeEdgeDoc(doc)
	if err != nil {
		return err
	}
	if p == nil {
		p = core.Props{}
	}
	p[name] = v
	ent := e.edgeIdx[id]
	if doc, err = e.encodeEdgeDoc(id, ent.src, ent.dst, e.labels.Name(ent.label), p); err != nil {
		return err
	}
	e.edocs[id] = doc
	return nil
}

// RemoveEdgeProp implements core.Engine.
func (e *Engine) RemoveEdgeProp(id core.ID, name string) error {
	e.call("unset-edge", id, name)
	doc, ok := e.edocs[id]
	if !ok {
		return core.ErrNotFound
	}
	p, err := decodeEdgeDoc(doc)
	if err != nil {
		return err
	}
	delete(p, name)
	ent := e.edgeIdx[id]
	if doc, err = e.encodeEdgeDoc(id, ent.src, ent.dst, e.labels.Name(ent.label), p); err != nil {
		return err
	}
	e.edocs[id] = doc
	return nil
}

// RemoveEdge implements core.Engine.
func (e *Engine) RemoveEdge(id core.ID) error {
	e.call("remove-edge", id)
	if _, ok := e.edocs[id]; !ok {
		return core.ErrNotFound
	}
	e.removeEdgeInternal(id)
	return nil
}

func (e *Engine) removeEdgeInternal(id core.ID) {
	ent := e.edgeIdx[id]
	e.outIdx[ent.src] = kit.RemoveID(e.outIdx[ent.src], id)
	e.inIdx[ent.dst] = kit.RemoveID(e.inIdx[ent.dst], id)
	delete(e.edocs, id)
	delete(e.edgeIdx, id)
}

// --- scans ---

// CountVertices implements core.Engine: a collection count, no
// materialization (one of the few whole-graph queries this engine
// finished in the paper).
func (e *Engine) CountVertices() (int64, error) {
	e.call("count-vertices", core.NoID)
	return int64(len(e.vdocs)), nil
}

// CountEdges implements core.Engine. The AQL translation materializes
// every edge document while counting — the paper's explanation for this
// engine timing out on edge iteration.
func (e *Engine) CountEdges() (int64, error) {
	e.call("count-edges", core.NoID)
	var n int64
	for _, doc := range e.edocs {
		if _, err := decodeEdgeDoc(doc); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// Vertices implements core.Engine.
func (e *Engine) Vertices() core.Iter[core.ID] {
	e.call("all-vertices", core.NoID)
	keys := slices.AppendSeq(make([]core.ID, 0, len(e.vdocs)), maps.Keys(e.vdocs))
	slices.Sort(keys)
	return core.SliceIter(keys)
}

// Edges implements core.Engine: materializes every document up front.
func (e *Engine) Edges() core.Iter[core.ID] {
	e.call("all-edges", core.NoID)
	keys := slices.AppendSeq(make([]core.ID, 0, len(e.edocs)), maps.Keys(e.edocs))
	slices.Sort(keys)
	for _, id := range keys {
		_, _ = decodeEdgeDoc(e.edocs[id])
	}
	return core.SliceIter(keys)
}

// VerticesByProp implements core.Engine: a full collection scan with
// document materialization (indexes bring no change; see package doc).
func (e *Engine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	e.call("filter-vertices", core.NoID, name)
	var out []core.ID
	for id, doc := range e.vdocs {
		p, err := decodeVertexDoc(doc)
		if err != nil {
			continue
		}
		if got, ok := p[name]; ok && got.Compare(v) == 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return core.SliceIter(out)
}

// EdgesByProp implements core.Engine.
func (e *Engine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	e.call("filter-edges", core.NoID, name)
	var out []core.ID
	for id, doc := range e.edocs {
		p, err := decodeEdgeDoc(doc)
		if err != nil {
			continue
		}
		if got, ok := p[name]; ok && got.Compare(v) == 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return core.SliceIter(out)
}

// EdgesByLabel implements core.Engine: scan with materialization.
func (e *Engine) EdgesByLabel(label string) core.Iter[core.ID] {
	e.call("filter-edges-label", core.NoID, label)
	tok, ok := e.labels.Lookup(label)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	var out []core.ID
	for id, doc := range e.edocs {
		_, _ = decodeEdgeDoc(doc)
		if e.edgeIdx[id].label == tok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return core.SliceIter(out)
}

// --- traversal (hash-index served: the engine's strong suit) ---

// IncidentEdges implements core.Engine.
func (e *Engine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	e.call("neighbors", id)
	if !e.HasVertex(id) {
		return core.EmptyIter[core.ID]()
	}
	toks, ok := e.labels.Filter(labels)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	return kit.Lists(e.outIdx[id], e.inIdx[id], d, func(eid core.ID, bothIn bool) bool {
		ent := e.edgeIdx[eid]
		return kit.Match(toks, ent.label) && !(bothIn && ent.src == ent.dst)
	})
}

// Neighbors implements core.Engine.
func (e *Engine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return kit.Neighbors(e, id, d, labels...)
}

// Degree implements core.Engine.
func (e *Engine) Degree(id core.ID, d core.Direction) (int64, error) {
	if !e.HasVertex(id) {
		return 0, core.ErrNotFound
	}
	return kit.ListDegree(e.outIdx[id], e.inIdx[id], d, e.isLoop), nil
}

// isLoop reports whether edge eid is a self-loop, from the hash index.
func (e *Engine) isLoop(eid core.ID) bool {
	ent := e.edgeIdx[eid]
	return ent.src == ent.dst
}

// --- index / bulk / space ---

// BulkLoad implements core.Engine via the implementation-specific import
// scripts the paper's suite uses for this engine: documents are written
// directly, bypassing the REST boundary — which is how ArangoDB ends up
// the *fastest* loader of the study despite its slow per-item path.
func (e *Engine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	if e.closed {
		return nil, core.ErrClosed
	}
	e.CapturePlanStats(g)
	res := core.NewLoadResult(g)
	// Pre-size the document and index maps from the CSR snapshot: on a
	// fresh engine the final cardinalities are known exactly, so the
	// load pays no incremental map growth. Only vertices with edges get
	// pre-sized adjacency slices — creating entries for isolated
	// vertices would change the space accounting.
	snap := g.Snapshot()
	if len(e.vdocs) == 0 && len(e.edocs) == 0 {
		e.vdocs = make(map[core.ID][]byte, g.NumVertices())
		e.edocs = make(map[core.ID][]byte, g.NumEdges())
		e.edgeIdx = make(map[core.ID]edgeEntry, g.NumEdges())
		e.outIdx = make(map[core.ID][]core.ID, g.NumVertices())
		e.inIdx = make(map[core.ID][]core.ID, g.NumVertices())
		// The snapshot's label table is exactly the token set this load
		// interns; tokens still assign in first-encounter order.
		e.labels.Reserve(len(snap.Labels))
	}
	for i := range g.VProps {
		id := core.ID(e.nextID)
		e.nextID++
		doc, err := e.encodeVertexDoc(id, g.VProps[i])
		if err != nil {
			return nil, err
		}
		e.vdocs[id] = doc
		res.VertexIDs[i] = id
		if d := snap.OutDegree(i); d > 0 && e.outIdx[id] == nil {
			e.outIdx[id] = make([]core.ID, 0, d)
		}
		if d := snap.InDegree(i); d > 0 && e.inIdx[id] == nil {
			e.inIdx[id] = make([]core.ID, 0, d)
		}
	}
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		id := core.ID(e.nextID)
		e.nextID++
		src, dst := res.VertexIDs[er.Src], res.VertexIDs[er.Dst]
		doc, err := e.encodeEdgeDoc(id, src, dst, er.Label, er.Props)
		if err != nil {
			return nil, err
		}
		e.edocs[id] = doc
		e.edgeIdx[id] = edgeEntry{src: src, dst: dst, label: e.labels.Intern(er.Label)}
		e.outIdx[src] = append(e.outIdx[src], id)
		e.inIdx[dst] = append(e.inIdx[dst], id)
		res.EdgeIDs[i] = id
	}
	return res, nil
}

// SpaceUsage implements core.Engine.
func (e *Engine) SpaceUsage() core.SpaceReport {
	var r core.SpaceReport
	var vb, eb int64
	for _, d := range e.vdocs {
		vb += int64(len(d)) + 16
	}
	for _, d := range e.edocs {
		eb += int64(len(d)) + 16
	}
	r.Add("vertex-documents", vb)
	r.Add("edge-documents", eb)
	var idx int64 = int64(len(e.edgeIdx)) * 40
	for _, l := range e.outIdx {
		idx += int64(len(l))*8 + 16
	}
	for _, l := range e.inIdx {
		idx += int64(len(l))*8 + 16
	}
	r.Add("edge-hash-index", idx)
	return r
}

// RESTBytes reports the bytes pushed through the simulated REST
// boundary (for tests and the harness's explain output).
func (e *Engine) RESTBytes() int64 { return e.restBytes.Load() }

// Clone returns an independent engine in e's state: the document and
// index maps are copied, and so is every adjacency list, with its
// capacity. Writes into either engine never reach the other.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{store: e.store.clone(), closed: e.closed}
	c.CopyPlanStats(&e.PlanStatsHolder)
	c.restBytes.Store(e.restBytes.Load())
	return c, nil
}

func (s *store) clone() store {
	return store{
		nextID: s.nextID,
		// The documents are shared: a write replaces a document with a
		// new encoding and never changes one in place.
		vdocs:           maps.Clone(s.vdocs),
		edocs:           maps.Clone(s.edocs),
		edgeIdx:         maps.Clone(s.edgeIdx),
		outIdx:          cloneLists(s.outIdx),
		inIdx:           cloneLists(s.inIdx),
		labels:          s.labels.Clone(),
		DeclaredIndexes: s.DeclaredIndexes.Clone(),
		scratch:         make([]byte, 0, cap(s.scratch)),
	}
}

// cloneLists copies the map and every adjacency list, with its
// capacity, into one allocation: edge removal shifts a list in place,
// so none is shared.
func cloneLists(m map[core.ID][]core.ID) map[core.ID][]core.ID {
	n := 0
	for _, l := range m {
		n += cap(l)
	}
	arena := make([]core.ID, n)
	c := maps.Clone(m)
	for id, l := range c {
		c[id], arena = arena[:len(l):cap(l)], arena[cap(l):]
		copy(c[id], l)
	}
	return c
}

// Close implements core.Engine: the documents and indexes go; the
// REST byte count restarts.
func (e *Engine) Close() error {
	e.store, e.closed = newStore(), true
	e.ReleasePlanStats()
	e.restBytes.Store(0)
	return nil
}
