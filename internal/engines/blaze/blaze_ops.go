package blaze

import (
	"cmp"
	"maps"
	"slices"
	"sort"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/engines/kit"
)

// Well-known predicate terms.
var (
	rdfType      = mkTerm(tagPred, predType)
	rdfSubject   = mkTerm(tagPred, predSubject)
	rdfPredicate = mkTerm(tagPred, predPredicate)
	rdfObject    = mkTerm(tagPred, predObject)
)

func vertexClassTerm() int64 { return mkTerm(tagLiteral, litVertexClass) }

// --- vertex CRUD ---

// AddVertex implements core.Engine: a type statement plus one statement
// per property, each hitting all three indexes.
func (e *Engine) AddVertex(props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	v := mkTerm(tagVertex, e.nextV)
	e.nextV++
	e.addStatement(statement{v, rdfType, vertexClassTerm()})
	for k, val := range props {
		e.addStatement(statement{v, e.pred(k), e.literal(val)})
	}
	return core.ID(v), nil
}

// HasVertex implements core.Engine.
func (e *Engine) HasVertex(id core.ID) bool {
	return termTag(int64(id)) == tagVertex &&
		e.hasStatement(statement{int64(id), rdfType, vertexClassTerm()})
}

// RemoveVertex implements core.Engine: retract the vertex's own
// statements and cascade to every reified edge that references it.
func (e *Engine) RemoveVertex(id core.ID) error {
	if !e.HasVertex(id) {
		return core.ErrNotFound
	}
	v := int64(id)
	var edges []int64
	e.forPO(rdfSubject, v, func(s int64) bool { edges = append(edges, s); return true })
	e.forPO(rdfObject, v, func(s int64) bool { edges = append(edges, s); return true })
	for _, ed := range edges {
		if e.HasEdge(core.ID(ed)) {
			e.removeEdgeStatements(ed)
		}
	}
	var own []statement
	e.forS(v, func(p, o int64) bool { own = append(own, statement{v, p, o}); return true })
	for _, st := range own {
		e.removeStatement(st)
	}
	return nil
}

// --- edge CRUD (reification) ---

// AddEdge implements core.Engine: three reification statements plus one
// per property — each ×3 indexes, the write amplification behind this
// engine's slow loading.
func (e *Engine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	if !e.HasVertex(src) || !e.HasVertex(dst) {
		return core.NoID, core.ErrNotFound
	}
	ed := mkTerm(tagEdge, e.nextE)
	e.nextE++
	e.addStatement(statement{ed, rdfSubject, int64(src)})
	e.addStatement(statement{ed, rdfPredicate, e.pred("label:" + label)})
	e.addStatement(statement{ed, rdfObject, int64(dst)})
	for k, v := range props {
		e.addStatement(statement{ed, e.pred(k), e.literal(v)})
	}
	return core.ID(ed), nil
}

// HasEdge implements core.Engine.
func (e *Engine) HasEdge(id core.ID) bool {
	if termTag(int64(id)) != tagEdge {
		return false
	}
	_, ok := e.firstSP(int64(id), rdfSubject)
	return ok
}

// EdgeLabel implements core.Engine.
func (e *Engine) EdgeLabel(id core.ID) (string, error) {
	if !e.HasEdge(id) {
		return "", core.ErrNotFound
	}
	p, ok := e.firstSP(int64(id), rdfPredicate)
	if !ok {
		return "", core.ErrNotFound
	}
	return e.predName(p)[len("label:"):], nil
}

// EdgeEnds implements core.Engine: two B+Tree probes (the reification
// cost of every edge traversal on this engine).
func (e *Engine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	s, ok := e.firstSP(int64(id), rdfSubject)
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	o, ok := e.firstSP(int64(id), rdfObject)
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	return core.ID(s), core.ID(o), nil
}

// RemoveEdge implements core.Engine.
func (e *Engine) RemoveEdge(id core.ID) error {
	if !e.HasEdge(id) {
		return core.ErrNotFound
	}
	e.removeEdgeStatements(int64(id))
	return nil
}

func (e *Engine) removeEdgeStatements(ed int64) {
	var sts []statement
	e.forS(ed, func(p, o int64) bool { sts = append(sts, statement{ed, p, o}); return true })
	for _, st := range sts {
		e.removeStatement(st)
	}
}

// --- properties: one body per operation, for vertices and edges ---

// VertexProps implements core.Engine.
func (e *Engine) VertexProps(id core.ID) (core.Props, error) { return e.propsOf(e.HasVertex(id), id) }

// EdgeProps implements core.Engine.
func (e *Engine) EdgeProps(id core.ID) (core.Props, error) { return e.propsOf(e.HasEdge(id), id) }

// VertexProp implements core.Engine.
func (e *Engine) VertexProp(id core.ID, name string) (core.Value, bool) {
	return e.propOf(e.HasVertex(id), id, name)
}

// EdgeProp implements core.Engine.
func (e *Engine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	return e.propOf(e.HasEdge(id), id, name)
}

// SetVertexProp implements core.Engine.
func (e *Engine) SetVertexProp(id core.ID, name string, v core.Value) error {
	return e.setProp(e.HasVertex(id), id, name, v)
}

// SetEdgeProp implements core.Engine.
func (e *Engine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	return e.setProp(e.HasEdge(id), id, name, v)
}

// RemoveVertexProp implements core.Engine.
func (e *Engine) RemoveVertexProp(id core.ID, name string) error {
	return e.removeProp(e.HasVertex(id), id, name)
}

// RemoveEdgeProp implements core.Engine.
func (e *Engine) RemoveEdgeProp(id core.ID, name string) error {
	return e.removeProp(e.HasEdge(id), id, name)
}

// propsOf is an SPO prefix scan over the element's statements: its
// properties are those whose predicate lies past the rdf: vocabulary.
func (e *Engine) propsOf(ok bool, id core.ID) (core.Props, error) {
	if !ok {
		return nil, core.ErrNotFound
	}
	p := core.Props{}
	e.forS(int64(id), func(pr, o int64) bool {
		if termSeq(pr) >= predFirstUser {
			p[e.predName(pr)] = e.literalValue(o)
		}
		return true
	})
	if len(p) == 0 {
		return nil, nil
	}
	return p, nil
}

func (e *Engine) propOf(ok bool, id core.ID, name string) (core.Value, bool) {
	if !ok {
		return core.Nil, false
	}
	pr, ok := e.predOf(name)
	if !ok {
		return core.Nil, false
	}
	o, ok := e.firstSP(int64(id), pr)
	if !ok {
		return core.Nil, false
	}
	return e.literalValue(o), true
}

// setProp retracts the old statement and asserts the new one.
func (e *Engine) setProp(ok bool, id core.ID, name string, v core.Value) error {
	if !ok {
		return core.ErrNotFound
	}
	pr := e.pred(name)
	if old, ok := e.firstSP(int64(id), pr); ok {
		e.removeStatement(statement{int64(id), pr, old})
	}
	e.addStatement(statement{int64(id), pr, e.literal(v)})
	return nil
}

func (e *Engine) removeProp(ok bool, id core.ID, name string) error {
	if !ok {
		return core.ErrNotFound
	}
	if pr, ok := e.predOf(name); ok {
		if old, ok := e.firstSP(int64(id), pr); ok {
			e.removeStatement(statement{int64(id), pr, old})
		}
	}
	return nil
}

// --- scans (per-step graph API execution; see package doc) ---

// CountVertices implements core.Engine.
func (e *Engine) CountVertices() (int64, error) {
	var n int64
	e.forPO(rdfType, vertexClassTerm(), func(int64) bool { n++; return true })
	return n, nil
}

// CountEdges implements core.Engine: enumerate reified subjects.
func (e *Engine) CountEdges() (int64, error) {
	var n int64
	var buf [24]byte
	e.pos.AscendPrefix(appendKey(buf[:0], rdfSubject), func(_, _ []byte) bool { n++; return true })
	return n, nil
}

// Vertices implements core.Engine.
func (e *Engine) Vertices() core.Iter[core.ID] {
	var out []core.ID
	e.forPO(rdfType, vertexClassTerm(), func(s int64) bool {
		out = append(out, core.ID(s))
		return true
	})
	return core.SliceIter(out)
}

// Edges implements core.Engine.
func (e *Engine) Edges() core.Iter[core.ID] {
	var out []core.ID
	var buf [24]byte
	e.pos.AscendPrefix(appendKey(buf[:0], rdfSubject), func(k, _ []byte) bool {
		_, _, s := decode3(k)
		out = append(out, core.ID(s))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return core.SliceIter(out)
}

// VerticesByProp implements core.Engine: iterate all vertices and probe
// each one's statement (the step-at-a-time Gremlin execution that never
// reaches the SPARQL optimizer).
func (e *Engine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	pr, okP := e.predOf(name)
	lit, okL := e.lits[v]
	if !okP || !okL {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.Vertices(), func(id core.ID) bool {
		return e.hasStatement(statement{int64(id), pr, lit})
	})
}

// EdgesByProp implements core.Engine.
func (e *Engine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	pr, okP := e.predOf(name)
	lit, okL := e.lits[v]
	if !okP || !okL {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.Edges(), func(id core.ID) bool {
		return e.hasStatement(statement{int64(id), pr, lit})
	})
}

// EdgesByLabel implements core.Engine.
func (e *Engine) EdgesByLabel(label string) core.Iter[core.ID] {
	pr, ok := e.predOf("label:" + label)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.Edges(), func(id core.ID) bool {
		return e.hasStatement(statement{int64(id), rdfPredicate, pr})
	})
}

// --- traversal ---

// IncidentEdges implements core.Engine: POS probes for the reified
// statements, then per-edge label probes when a filter is present.
func (e *Engine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	if !e.HasVertex(id) {
		return core.EmptyIter[core.ID]()
	}
	// The label predicates to keep; empty means unfiltered.
	var wantBuf [4]int64
	want := wantBuf[:0]
	for _, l := range labels {
		if pr, ok := e.predOf("label:" + l); ok {
			want = append(want, pr)
		}
	}
	if len(labels) > 0 && len(want) == 0 {
		return core.EmptyIter[core.ID]()
	}
	var out []core.ID
	add := func(s int64) bool {
		if len(want) > 0 {
			p, _ := e.firstSP(s, rdfPredicate)
			if !slices.Contains(want, p) {
				return true
			}
		}
		out = append(out, core.ID(s))
		return true
	}
	v := int64(id)
	switch d {
	case core.DirOut:
		e.forPO(rdfSubject, v, add)
	case core.DirIn:
		e.forPO(rdfObject, v, add)
	default:
		e.forPO(rdfSubject, v, add)
		e.forPO(rdfObject, v, func(s int64) bool {
			// Skip loops: already collected by the subject pass.
			if sub, _ := e.firstSP(s, rdfSubject); sub == v {
				return true
			}
			return add(s)
		})
	}
	return core.SliceIter(out)
}

// Neighbors implements core.Engine.
func (e *Engine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return kit.Neighbors(e, id, d, labels...)
}

// Degree implements core.Engine.
func (e *Engine) Degree(id core.ID, d core.Direction) (int64, error) {
	return kit.Degree(e, id, d)
}

// --- index / bulk / space ---

// BuildVertexPropIndex implements core.Engine: the engine has no
// user-controlled attribute indexes.
func (e *Engine) BuildVertexPropIndex(string) error { return core.ErrUnsupported }

// HasVertexPropIndex implements core.Engine.
func (e *Engine) HasVertexPropIndex(string) bool { return false }

// BulkLoad implements core.Engine through the explicit "bulk loading"
// option: statements are collected, sorted once per index, and the
// three B+Trees are bulk-built without per-insert rebalancing.
func (e *Engine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	if e.closed {
		return nil, core.ErrClosed
	}
	e.CapturePlanStats(g)
	res := core.NewLoadResult(g)
	// Exact statement count from the CSR snapshot: one rdf:type per
	// vertex, three reification triples per edge, one per property.
	snap := g.Snapshot()
	sts := make([]statement, 0, g.NumVertices()+3*g.NumEdges()+snap.VPropTotal+snap.EPropTotal)
	// The label predicates alone put len(snap.Labels) terms in the
	// dictionary; pre-size an untouched one to at least that.
	e.preds.Reserve(len(snap.Labels))
	for i := range g.VProps {
		v := mkTerm(tagVertex, e.nextV)
		e.nextV++
		res.VertexIDs[i] = core.ID(v)
		sts = append(sts, statement{v, rdfType, vertexClassTerm()})
		for k, val := range g.VProps[i] {
			sts = append(sts, statement{v, e.pred(k), e.literal(val)})
		}
	}
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		ed := mkTerm(tagEdge, e.nextE)
		e.nextE++
		res.EdgeIDs[i] = core.ID(ed)
		sts = append(sts,
			statement{ed, rdfSubject, int64(res.VertexIDs[er.Src])},
			statement{ed, rdfPredicate, e.pred("label:" + er.Label)},
			statement{ed, rdfObject, int64(res.VertexIDs[er.Dst])})
		for k, val := range er.Props {
			sts = append(sts, statement{ed, e.pred(k), e.literal(val)})
		}
	}
	// Merge with any pre-existing statements (bulk load on a non-empty
	// store falls back to the incremental path for simplicity).
	if e.spo.Len() > 0 {
		for _, st := range sts {
			e.addStatement(st)
		}
		return res, nil
	}
	// Each index is built from the statements sorted as term triples in
	// its order: enc.Int64 preserves int64 order, so the keys, encoded
	// once into one buffer, arrive sorted. Rotating every triple turns
	// SPO order into POS and POS into OSP. The tree copies the keys, so
	// the next index reuses the buffer.
	written := len(sts)
	// Dedupe defensively: BulkBuild requires strictly ascending keys.
	slices.SortFunc(sts, compareStatements)
	sts = slices.Compact(sts)
	buf := make([]byte, 24*len(sts))
	keys := make([][]byte, len(sts))
	for n, t := range []*btree.Tree{e.spo, e.pos, e.osp} {
		if n > 0 {
			for i, st := range sts {
				sts[i] = statement{st.p, st.o, st.s}
			}
			slices.SortFunc(sts, compareStatements)
		}
		for i, st := range sts {
			keys[i] = appendKey(buf[24*i:24*i:24*(i+1)], st.s, st.p, st.o)
		}
		if err := t.BulkBuild(keys, nil); err != nil {
			return nil, err
		}
	}
	e.journalUsed += int64(written) * 75
	for e.journalUsed > e.journalCap {
		e.journalCap += journalSegment
	}
	return res, nil
}

// compareStatements orders statements as (s, p, o) triples of int64.
func compareStatements(a, b statement) int {
	if c := cmp.Compare(a.s, b.s); c != 0 {
		return c
	}
	if c := cmp.Compare(a.p, b.p); c != 0 {
		return c
	}
	return cmp.Compare(a.o, b.o)
}

// SpaceUsage implements core.Engine: the pre-allocated journal plus the
// threefold statement indexes and the term dictionary.
func (e *Engine) SpaceUsage() core.SpaceReport {
	var r core.SpaceReport
	r.Add("journal(preallocated)", e.journalCap)
	r.Add("spo-index", e.spo.Bytes())
	r.Add("pos-index", e.pos.Bytes())
	r.Add("osp-index", e.osp.Bytes())
	var dict int64
	for v := range e.lits {
		dict += v.Bytes() + 24
	}
	r.Add("term-dictionary", dict+e.preds.Bytes())
	return r
}

// Clone returns an independent engine in e's state: a copy of the three
// statement indexes and of the term dictionary. Writes into either
// engine never reach the other.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{store: e.store.clone(), closed: e.closed}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

func (s *store) clone() store {
	return store{
		spo:         s.spo.Clone(),
		pos:         s.pos.Clone(),
		osp:         s.osp.Clone(),
		preds:       s.preds.Clone(),
		lits:        maps.Clone(s.lits),
		litVals:     append(make([]core.Value, 0, cap(s.litVals)), s.litVals...),
		nextV:       s.nextV,
		nextE:       s.nextE,
		journalUsed: s.journalUsed,
		journalCap:  s.journalCap,
	}
}

// Close implements core.Engine: the statement indexes, the term
// dictionary and the journal go.
func (e *Engine) Close() error {
	e.store, e.closed = newStore(), true
	e.ReleasePlanStats()
	return nil
}
