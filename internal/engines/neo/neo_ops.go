package neo

import (
	"repro/internal/core"
	"repro/internal/engines/kit"
	"repro/internal/pagefile"
)

// --- vertex CRUD ---

// AddVertex implements core.Engine.
func (e *Engine) AddVertex(props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	t := e.begin()
	id := e.addVertexDirect(props)
	t.record(0, int64(id), nil)
	t.commit()
	return id, nil
}

func (e *Engine) addVertexDirect(props core.Props) core.ID {
	id := e.nodes.Alloc()
	rec, _ := e.nodes.Record(id)
	setNodeFirstRel(rec, nilRef)
	first := nilRef
	for k, v := range props {
		first = e.propChainSet(first, k, v, nil)
		e.vindex.Add(k, v, core.ID(id))
	}
	putI64(rec, nFirstProp, first)
	return core.ID(id)
}

// HasVertex implements core.Engine.
func (e *Engine) HasVertex(id core.ID) bool { return e.nodes.InUse(int64(id)) }

// RemoveVertex implements core.Engine. Incident edges are cascaded.
func (e *Engine) RemoveVertex(id core.ID) error {
	rec, ok := e.nodes.Record(int64(id))
	if !ok {
		return core.ErrNotFound
	}
	t := e.begin()
	t.record(0, int64(id), rec)
	// Collect incident edges first: unlinking while walking would break
	// the chain.
	incident := core.Collect(e.IncidentEdges(id, core.DirBoth))
	for _, eid := range incident {
		if err := e.removeEdgeInternal(eid, t); err != nil {
			return err
		}
	}
	// Drop index entries for this vertex.
	for _, name := range e.vindex.Names() {
		if v, had := e.propChainGet(getI64(rec, nFirstProp), name); had {
			e.vindex.Remove(name, v, id)
		}
	}
	e.propChainFree(getI64(rec, nFirstProp))
	if e.version == V30 {
		e.freeGroups(nodeFirstRel(rec))
	}
	e.nodes.Free(int64(id))
	t.commit()
	return nil
}

// --- edge CRUD ---

// AddEdge implements core.Engine.
func (e *Engine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	if !e.nodes.InUse(int64(src)) || !e.nodes.InUse(int64(dst)) {
		return core.NoID, core.ErrNotFound
	}
	t := e.begin()
	id := e.addEdgeDirect(src, dst, label, props, t)
	t.commit()
	return id, nil
}

func (e *Engine) addEdgeDirect(src, dst core.ID, label string, props core.Props, t *tx) core.ID {
	tok := e.labels.Intern(label)
	id := e.rels.Alloc()
	rec, _ := e.rels.Record(id)
	putI64(rec, rSrc, int64(src))
	putI64(rec, rDst, int64(dst))
	putU32(rec, rType, tok)
	putI64(rec, rSrcPrev, nilRef)
	putI64(rec, rSrcNext, nilRef)
	putI64(rec, rDstPrev, nilRef)
	putI64(rec, rDstNext, nilRef)
	first := nilRef
	for k, v := range props {
		first = e.propChainSet(first, k, v, nil)
	}
	putI64(rec, rFirstProp, first)

	if e.version == V19 {
		e.linkV19(int64(src), id, rec, true)
		if dst != src {
			e.linkV19(int64(dst), id, rec, false)
		}
	} else {
		e.linkV30(int64(src), id, rec, tok, true, t)
		e.linkV30(int64(dst), id, rec, tok, false, t)
	}
	t.record(1, id, rec)
	return core.ID(id)
}

// linkV19 pushes rel id at the head of node's single chain. asSrc
// selects which pointer pair of the new record carries the chain.
func (e *Engine) linkV19(node, id int64, rec []byte, asSrc bool) {
	nrec, _ := e.nodes.Record(node)
	head := nodeFirstRel(nrec)
	if asSrc {
		putI64(rec, rSrcNext, head)
	} else {
		putI64(rec, rDstNext, head)
	}
	if head != nilRef {
		hrec, _ := e.rels.Record(head)
		if getI64(hrec, rSrc) == node {
			putI64(hrec, rSrcPrev, id)
		} else {
			putI64(hrec, rDstPrev, id)
		}
	}
	setNodeFirstRel(nrec, id)
}

// linkV30 pushes rel id at the head of node's per-type chain: the out
// chain when asSrc, the in chain otherwise. Group records are created on
// demand (the relationship-group machinery the newer storage format
// introduced to split chains by type and direction).
func (e *Engine) linkV30(node, id int64, rec []byte, tok uint32, asSrc bool, t *tx) {
	grp := e.findOrAddGroup(node, tok, t)
	grec, _ := e.groups.Record(grp)
	if asSrc {
		head := getI64(grec, gFirstOut)
		putI64(rec, rSrcNext, head)
		if head != nilRef {
			hrec, _ := e.rels.Record(head)
			putI64(hrec, rSrcPrev, id)
		}
		putI64(grec, gFirstOut, id)
	} else {
		head := getI64(grec, gFirstIn)
		putI64(rec, rDstNext, head)
		if head != nilRef {
			hrec, _ := e.rels.Record(head)
			putI64(hrec, rDstPrev, id)
		}
		putI64(grec, gFirstIn, id)
	}
}

func (e *Engine) findOrAddGroup(node int64, tok uint32, t *tx) int64 {
	nrec, _ := e.nodes.Record(node)
	for g := nodeFirstRel(nrec); g != nilRef; {
		grec, _ := e.groups.Record(g)
		if getU32(grec, gType) == tok {
			return g
		}
		g = getI64(grec, gNext)
	}
	g := e.groups.Alloc()
	grec, _ := e.groups.Record(g)
	putU32(grec, gType, tok)
	putI64(grec, gNext, nodeFirstRel(nrec))
	putI64(grec, gFirstOut, nilRef)
	putI64(grec, gFirstIn, nilRef)
	setNodeFirstRel(nrec, g)
	t.record(3, g, grec)
	return g
}

func (e *Engine) freeGroups(first int64) {
	for g := first; g != nilRef; {
		grec, _ := e.groups.Record(g)
		next := getI64(grec, gNext)
		e.groups.Free(g)
		g = next
	}
}

// HasEdge implements core.Engine.
func (e *Engine) HasEdge(id core.ID) bool { return e.rels.InUse(int64(id)) }

// EdgeLabel implements core.Engine.
func (e *Engine) EdgeLabel(id core.ID) (string, error) {
	rec, ok := e.rels.Record(int64(id))
	if !ok {
		return "", core.ErrNotFound
	}
	return e.labels.Name(getU32(rec, rType)), nil
}

// EdgeEnds implements core.Engine.
func (e *Engine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	rec, ok := e.rels.Record(int64(id))
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	return core.ID(getI64(rec, rSrc)), core.ID(getI64(rec, rDst)), nil
}

// RemoveEdge implements core.Engine.
func (e *Engine) RemoveEdge(id core.ID) error {
	if !e.rels.InUse(int64(id)) {
		return core.ErrNotFound
	}
	t := e.begin()
	err := e.removeEdgeInternal(id, t)
	t.commit()
	return err
}

func (e *Engine) removeEdgeInternal(id core.ID, t *tx) error {
	rec, ok := e.rels.Record(int64(id))
	if !ok {
		return core.ErrNotFound
	}
	t.record(1, int64(id), rec)
	src := getI64(rec, rSrc)
	dst := getI64(rec, rDst)
	tok := getU32(rec, rType)
	if e.version == V19 {
		e.unlinkV19(src, int64(id), rec, true)
		if dst != src {
			e.unlinkV19(dst, int64(id), rec, false)
		}
	} else {
		e.unlinkV30(src, int64(id), rec, tok, true)
		e.unlinkV30(dst, int64(id), rec, tok, false)
	}
	e.propChainFree(getI64(rec, rFirstProp))
	e.rels.Free(int64(id))
	return nil
}

// unlinkV19 removes rel id from node's chain. asSrc selects which
// pointer pair of the record carries this node's chain.
func (e *Engine) unlinkV19(node, id int64, rec []byte, asSrc bool) {
	var prev, next int64
	if asSrc {
		prev, next = getI64(rec, rSrcPrev), getI64(rec, rSrcNext)
	} else {
		prev, next = getI64(rec, rDstPrev), getI64(rec, rDstNext)
	}
	if prev == nilRef {
		nrec, _ := e.nodes.Record(node)
		setNodeFirstRel(nrec, next)
	} else {
		prec, _ := e.rels.Record(prev)
		if getI64(prec, rSrc) == node {
			putI64(prec, rSrcNext, next)
		} else {
			putI64(prec, rDstNext, next)
		}
	}
	if next != nilRef {
		nrec, _ := e.rels.Record(next)
		if getI64(nrec, rSrc) == node {
			putI64(nrec, rSrcPrev, prev)
		} else {
			putI64(nrec, rDstPrev, prev)
		}
	}
}

// unlinkV30 removes rel id from the per-type out or in chain of node.
func (e *Engine) unlinkV30(node, id int64, rec []byte, tok uint32, asSrc bool) {
	var prev, next int64
	if asSrc {
		prev, next = getI64(rec, rSrcPrev), getI64(rec, rSrcNext)
	} else {
		prev, next = getI64(rec, rDstPrev), getI64(rec, rDstNext)
	}
	if prev == nilRef {
		// Head of a group chain: find the group.
		nrec, _ := e.nodes.Record(node)
		for g := nodeFirstRel(nrec); g != nilRef; {
			grec, _ := e.groups.Record(g)
			if getU32(grec, gType) == tok {
				if asSrc {
					putI64(grec, gFirstOut, next)
				} else {
					putI64(grec, gFirstIn, next)
				}
				break
			}
			g = getI64(grec, gNext)
		}
	} else {
		prec, _ := e.rels.Record(prev)
		if asSrc {
			putI64(prec, rSrcNext, next)
		} else {
			putI64(prec, rDstNext, next)
		}
	}
	if next != nilRef {
		nrec, _ := e.rels.Record(next)
		if asSrc {
			putI64(nrec, rSrcPrev, prev)
		} else {
			putI64(nrec, rDstPrev, prev)
		}
	}
}

// --- properties: one body per operation, for vertices and edges ---

// noIndex is the empty attribute index of edges: the modelled versions
// index only node attributes.
var noIndex kit.PropIndex

// VertexProps implements core.Engine.
func (e *Engine) VertexProps(id core.ID) (core.Props, error) {
	return e.propsOf(e.nodes, nFirstProp, id)
}

// EdgeProps implements core.Engine.
func (e *Engine) EdgeProps(id core.ID) (core.Props, error) { return e.propsOf(e.rels, rFirstProp, id) }

// VertexProp implements core.Engine.
func (e *Engine) VertexProp(id core.ID, name string) (core.Value, bool) {
	return e.propOf(e.nodes, nFirstProp, id, name)
}

// EdgeProp implements core.Engine.
func (e *Engine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	return e.propOf(e.rels, rFirstProp, id, name)
}

// SetVertexProp implements core.Engine.
func (e *Engine) SetVertexProp(id core.ID, name string, v core.Value) error {
	return e.setProp(e.nodes, 0, nFirstProp, &e.vindex, id, name, v)
}

// SetEdgeProp implements core.Engine.
func (e *Engine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	return e.setProp(e.rels, 1, rFirstProp, &noIndex, id, name, v)
}

// RemoveVertexProp implements core.Engine.
func (e *Engine) RemoveVertexProp(id core.ID, name string) error {
	return e.removeProp(e.nodes, 0, nFirstProp, &e.vindex, id, name)
}

// RemoveEdgeProp implements core.Engine.
func (e *Engine) RemoveEdgeProp(id core.ID, name string) error {
	return e.removeProp(e.rels, 1, rFirstProp, &noIndex, id, name)
}

func (e *Engine) propsOf(s *pagefile.Store, head int, id core.ID) (core.Props, error) {
	rec, ok := s.Record(int64(id))
	if !ok {
		return nil, core.ErrNotFound
	}
	return e.propChainAll(getI64(rec, head)), nil
}

func (e *Engine) propOf(s *pagefile.Store, head int, id core.ID, name string) (core.Value, bool) {
	rec, ok := s.Record(int64(id))
	if !ok {
		return core.Nil, false
	}
	return e.propChainGet(getI64(rec, head), name)
}

func (e *Engine) setProp(s *pagefile.Store, tag int8, head int, idx *kit.PropIndex, id core.ID, name string, v core.Value) error {
	rec, ok := s.Record(int64(id))
	if !ok {
		return core.ErrNotFound
	}
	t := e.begin()
	t.record(tag, int64(id), rec)
	if idx.Has(name) {
		if old, had := e.propChainGet(getI64(rec, head), name); had {
			idx.Remove(name, old, id)
		}
		idx.Add(name, v, id)
	}
	putI64(rec, head, e.propChainSet(getI64(rec, head), name, v, t))
	t.commit()
	return nil
}

func (e *Engine) removeProp(s *pagefile.Store, tag int8, head int, idx *kit.PropIndex, id core.ID, name string) error {
	rec, ok := s.Record(int64(id))
	if !ok {
		return core.ErrNotFound
	}
	t := e.begin()
	t.record(tag, int64(id), rec)
	if idx.Has(name) {
		if old, had := e.propChainGet(getI64(rec, head), name); had {
			idx.Remove(name, old, id)
		}
	}
	chain, _ := e.propChainRemove(getI64(rec, head), name, t)
	putI64(rec, head, chain)
	t.commit()
	return nil
}

// --- store-wide scans ---

func storeIter(s *pagefile.Store) core.Iter[core.ID] {
	var i int64
	hw := s.HighWater()
	return func() (core.ID, bool) {
		for i < hw {
			id := i
			i++
			if s.InUse(id) {
				return core.ID(id), true
			}
		}
		return core.NoID, false
	}
}

// CountVertices implements core.Engine; it scans the node store, as the
// modelled versions do (no count store).
func (e *Engine) CountVertices() (int64, error) {
	return int64(core.Drain(e.Vertices())), nil
}

// CountEdges implements core.Engine.
func (e *Engine) CountEdges() (int64, error) {
	return int64(core.Drain(e.Edges())), nil
}

// Vertices implements core.Engine.
func (e *Engine) Vertices() core.Iter[core.ID] { return storeIter(e.nodes) }

// Edges implements core.Engine.
func (e *Engine) Edges() core.Iter[core.ID] { return storeIter(e.rels) }

// VerticesByProp implements core.Engine: an index lookup when the user
// built one, a full node-store scan with property-chain walks otherwise.
func (e *Engine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	return kit.VerticesByProp(e, &e.vindex, name, v)
}

// EdgesByProp implements core.Engine (always a scan: the modelled
// versions index only node attributes).
func (e *Engine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	return kit.EdgesByProp(e, name, v)
}

// EdgesByLabel implements core.Engine: a relationship-store scan
// comparing type tokens (the paper notes native engines did not
// specially optimize label equality search).
func (e *Engine) EdgesByLabel(label string) core.Iter[core.ID] {
	tok, ok := e.labels.Lookup(label)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.Edges(), func(id core.ID) bool {
		rec, _ := e.rels.Record(int64(id))
		return getU32(rec, rType) == tok
	})
}

// --- traversal ---

// IncidentEdges implements core.Engine.
func (e *Engine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	if !e.nodes.InUse(int64(id)) {
		return core.EmptyIter[core.ID]()
	}
	toks, ok := e.labels.Filter(labels)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	if e.version == V19 {
		return e.incidentV19(int64(id), d, toks)
	}
	return e.incidentV30(int64(id), d, toks)
}

func (e *Engine) incidentV19(node int64, d core.Direction, toks []uint32) core.Iter[core.ID] {
	nrec, _ := e.nodes.Record(node)
	cur := nodeFirstRel(nrec)
	return func() (core.ID, bool) {
		for cur != nilRef {
			id := cur
			rec, _ := e.rels.Record(id)
			src := getI64(rec, rSrc)
			if src == node {
				cur = getI64(rec, rSrcNext)
			} else {
				cur = getI64(rec, rDstNext)
			}
			if !kit.Match(toks, getU32(rec, rType)) {
				continue
			}
			dst := getI64(rec, rDst)
			switch d {
			case core.DirOut:
				if src != node {
					continue
				}
			case core.DirIn:
				if dst != node {
					continue
				}
			}
			return core.ID(id), true
		}
		return core.NoID, false
	}
}

// incidentV30 walks the group chains. For DirBoth, the out chains are
// walked first and then the in chains with self-loops skipped (a loop is
// already reported by its out chain).
func (e *Engine) incidentV30(node int64, d core.Direction, toks []uint32) core.Iter[core.ID] {
	nrec, _ := e.nodes.Record(node)
	grp := nodeFirstRel(nrec)
	phaseOut := d == core.DirOut || d == core.DirBoth
	cur := nilRef
	advanceGroup := func() {
		for cur == nilRef && grp != nilRef {
			grec, _ := e.groups.Record(grp)
			if kit.Match(toks, getU32(grec, gType)) {
				if phaseOut {
					cur = getI64(grec, gFirstOut)
				} else {
					cur = getI64(grec, gFirstIn)
				}
			}
			if cur == nilRef {
				grp = getI64(grec, gNext)
			}
		}
	}
	advanceGroup()
	return func() (core.ID, bool) {
		for {
			if cur == nilRef {
				if grp == nilRef {
					if phaseOut && d == core.DirBoth {
						// Switch to the in-chain phase.
						phaseOut = false
						grp = nodeFirstRel(nrec)
						advanceGroup()
						continue
					}
					return core.NoID, false
				}
				grec, _ := e.groups.Record(grp)
				grp = getI64(grec, gNext)
				advanceGroup()
				continue
			}
			id := cur
			rec, _ := e.rels.Record(id)
			if phaseOut {
				cur = getI64(rec, rSrcNext)
			} else {
				cur = getI64(rec, rDstNext)
			}
			if cur == nilRef {
				grec, _ := e.groups.Record(grp)
				grp = getI64(grec, gNext)
				advanceGroup()
			}
			if !phaseOut && d == core.DirBoth && getI64(rec, rSrc) == getI64(rec, rDst) {
				continue // loop already seen in the out phase
			}
			return core.ID(id), true
		}
	}
}

// Neighbors implements core.Engine.
func (e *Engine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return kit.Neighbors(e, id, d, labels...)
}

// Degree implements core.Engine by walking the chains.
func (e *Engine) Degree(id core.ID, d core.Direction) (int64, error) {
	return kit.Degree(e, id, d)
}

// --- attribute index ---

// BuildVertexPropIndex implements core.Engine.
func (e *Engine) BuildVertexPropIndex(name string) error {
	e.vindex.Build(name, e.Vertices, e.VertexProp)
	return nil
}

// HasVertexPropIndex implements core.Engine.
func (e *Engine) HasVertexPropIndex(name string) bool { return e.vindex.Has(name) }

// --- bulk load, space, lifecycle ---

// BulkLoad implements core.Engine through the direct storage path (the
// paper found the Gremlin load path of this engine equally good, so no
// penalty applies).
func (e *Engine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	if e.closed {
		return nil, core.ErrClosed
	}
	e.CapturePlanStats(g)
	res := core.NewLoadResult(g)
	// Reserve the store files up front — the record counts are known
	// exactly from the CSR snapshot (one node record per vertex, one
	// relationship record per edge, one property record per property),
	// so the loader skips every doubling copy of incremental growth.
	snap := g.Snapshot()
	e.nodes.Reserve(int64(g.NumVertices()))
	e.rels.Reserve(int64(g.NumEdges()))
	e.props.Reserve(int64(snap.VPropTotal + snap.EPropTotal))
	// The snapshot's label table is exactly the relationship-type token
	// set this load will intern.
	e.labels.Reserve(len(snap.Labels))
	for i := range g.VProps {
		res.VertexIDs[i] = e.addVertexDirect(g.VProps[i])
	}
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		res.EdgeIDs[i] = e.addEdgeDirect(res.VertexIDs[er.Src], res.VertexIDs[er.Dst], er.Label, er.Props, nil)
	}
	return res, nil
}

// SpaceUsage implements core.Engine.
func (e *Engine) SpaceUsage() core.SpaceReport {
	var r core.SpaceReport
	r.Add("node-store", e.nodes.Bytes())
	r.Add("relationship-store", e.rels.Bytes())
	r.Add("property-store", e.props.Bytes())
	r.Add("string-store", e.strs.Bytes())
	r.Add("token-stores", e.labels.Bytes()+e.propKeys.Bytes())
	if e.groups != nil {
		r.Add("group-store", e.groups.Bytes())
	}
	r.Add("attribute-indexes", e.vindex.Bytes())
	return r
}

// Clone returns an independent engine in e's state: a copy of every
// store file, token store and index. Writes into either engine never
// reach the other.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{version: e.version, store: e.store.clone(), closed: e.closed}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

func (s *store) clone() store {
	c := store{
		nodes:    s.nodes.Clone(),
		rels:     s.rels.Clone(),
		props:    s.props.Clone(),
		strs:     s.strs.Clone(),
		labels:   s.labels.Clone(),
		propKeys: s.propKeys.Clone(),
		vindex:   s.vindex.Clone(),
	}
	if s.groups != nil {
		c.groups = s.groups.Clone()
	}
	return c
}

// Close implements core.Engine: the store files and the indexes go.
func (e *Engine) Close() error {
	e.store, e.closed = newStore(e.version), true
	e.ReleasePlanStats()
	return nil
}
