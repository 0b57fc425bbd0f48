package titan

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/engines/kit"
	"repro/internal/lsm"
)

// checkedWrite models the v0.5 consistency machinery: reads verifying
// the object's existence precede the write. v1.0 trimmed this path.
func (e *Engine) checkedWrite(tag byte, id core.ID) {
	if e.version == V05 {
		_, _ = e.kv.Get(rowKey(tag, id, colExists))
		// Duplicate-detection read against the row's property columns.
		e.kv.ScanPrefix(rowKey(tag, id, colProp), func(_, _ []byte) bool { return false })
	}
}

// --- vertex CRUD ---

// AddVertex implements core.Engine. The row writes plus the ID
// allocator update form one atomic WAL unit in durable mode.
func (e *Engine) AddVertex(props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	var id core.ID
	e.kv.Tx(func() {
		id = e.allocID()
		e.checkedWrite(tagVertexRow, id)
		e.kv.Put(rowKey(tagVertexRow, id, colExists), nil)
		for k, v := range props {
			e.kv.Put(propKey(tagVertexRow, id, e.ensureProp(k)), encodeValue(v))
			e.vindex.Add(k, v, id)
		}
	})
	return id, nil
}

// HasVertex implements core.Engine.
func (e *Engine) HasVertex(id core.ID) bool { return e.has(tagVertexRow, id) }

// has reports whether row id exists under tag: a read of its existence
// column.
func (e *Engine) has(tag byte, id core.ID) bool {
	if id < 0 {
		return false
	}
	_, ok := e.kv.Get(rowKey(tag, id, colExists))
	return ok
}

// RemoveVertex implements core.Engine: tombstones for the whole row plus
// cascaded edge removals.
func (e *Engine) RemoveVertex(id core.ID) error {
	if !e.HasVertex(id) {
		return core.ErrNotFound
	}
	for _, name := range e.vindex.Names() {
		if v, had := e.VertexProp(id, name); had {
			e.vindex.Remove(name, v, id)
		}
	}
	var eids []core.ID
	for _, kind := range []byte{colOutEdge, colInEdge} {
		e.kv.ScanPrefix(rowKey(tagVertexRow, id, kind), func(k, _ []byte) bool {
			_, _, eid := parseEdgeCol(id, k)
			eids = append(eids, eid)
			return true
		})
	}
	for _, eid := range eids {
		if e.HasEdge(eid) {
			if err := e.RemoveEdge(eid); err != nil {
				return err
			}
		}
	}
	// Tombstone the remaining row columns.
	var doomed [][]byte
	for _, kind := range []byte{colExists, colProp, colOutEdge, colInEdge} {
		e.kv.ScanPrefix(rowKey(tagVertexRow, id, kind), func(k, _ []byte) bool {
			doomed = append(doomed, append([]byte(nil), k...))
			return true
		})
	}
	e.kv.Tx(func() {
		for _, k := range doomed {
			e.kv.Delete(k)
		}
	})
	return nil
}

// --- edge CRUD ---

// AddEdge implements core.Engine: one edge row plus an adjacency column
// in each endpoint row.
func (e *Engine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	if !e.HasVertex(src) || !e.HasVertex(dst) {
		return core.NoID, core.ErrNotFound
	}
	var eid core.ID
	e.kv.Tx(func() {
		eid = e.allocID()
		tok := e.ensureLabel(label)
		e.checkedWrite(tagVertexRow, src)
		e.kv.Put(rowKey(tagEdgeRow, eid, colExists), encodeEdgeRow(src, dst, tok))
		e.kv.Put(edgeColKey(src, colOutEdge, tok, dst, eid), nil)
		e.kv.Put(edgeColKey(dst, colInEdge, tok, src, eid), nil)
		for k, v := range props {
			e.kv.Put(propKey(tagEdgeRow, eid, e.ensureProp(k)), encodeValue(v))
		}
	})
	return eid, nil
}

func (e *Engine) edgeRow(id core.ID) (src, dst core.ID, tok uint32, ok bool) {
	if id < 0 {
		return 0, 0, 0, false
	}
	b, ok := e.kv.Get(rowKey(tagEdgeRow, id, colExists))
	if !ok {
		return 0, 0, 0, false
	}
	src, dst, tok = decodeEdgeRow(b)
	return src, dst, tok, true
}

// HasEdge implements core.Engine.
func (e *Engine) HasEdge(id core.ID) bool { return e.has(tagEdgeRow, id) }

// EdgeLabel implements core.Engine.
func (e *Engine) EdgeLabel(id core.ID) (string, error) {
	_, _, tok, ok := e.edgeRow(id)
	if !ok {
		return "", core.ErrNotFound
	}
	return e.labels.Name(tok), nil
}

// EdgeEnds implements core.Engine.
func (e *Engine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	src, dst, _, ok := e.edgeRow(id)
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	return src, dst, nil
}

// RemoveEdge implements core.Engine: pure tombstone writes — the reason
// the paper measures Titan's deletions an order of magnitude faster
// than its insertions.
func (e *Engine) RemoveEdge(id core.ID) error {
	src, dst, tok, ok := e.edgeRow(id)
	if !ok {
		return core.ErrNotFound
	}
	var doomed [][]byte
	e.kv.ScanPrefix(rowKey(tagEdgeRow, id, colProp), func(k, _ []byte) bool {
		doomed = append(doomed, append([]byte(nil), k...))
		return true
	})
	e.kv.Tx(func() {
		e.kv.Delete(edgeColKey(src, colOutEdge, tok, dst, id))
		e.kv.Delete(edgeColKey(dst, colInEdge, tok, src, id))
		for _, k := range doomed {
			e.kv.Delete(k)
		}
		e.kv.Delete(rowKey(tagEdgeRow, id, colExists))
	})
	return nil
}

// --- properties: one body per operation, for vertices and edges ---

// noIndex is the empty index of edges: graph-centric indexes are built
// on vertex properties only.
var noIndex kit.PropIndex

// VertexProps implements core.Engine.
func (e *Engine) VertexProps(id core.ID) (core.Props, error) { return e.propsOf(tagVertexRow, id) }

// EdgeProps implements core.Engine.
func (e *Engine) EdgeProps(id core.ID) (core.Props, error) { return e.propsOf(tagEdgeRow, id) }

// VertexProp implements core.Engine.
func (e *Engine) VertexProp(id core.ID, name string) (core.Value, bool) {
	return e.propOf(tagVertexRow, id, name)
}

// EdgeProp implements core.Engine.
func (e *Engine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	return e.propOf(tagEdgeRow, id, name)
}

// SetVertexProp implements core.Engine.
func (e *Engine) SetVertexProp(id core.ID, name string, v core.Value) error {
	return e.setProp(tagVertexRow, &e.vindex, id, name, v)
}

// SetEdgeProp implements core.Engine.
func (e *Engine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	return e.setProp(tagEdgeRow, &noIndex, id, name, v)
}

// RemoveVertexProp implements core.Engine.
func (e *Engine) RemoveVertexProp(id core.ID, name string) error {
	return e.removeProp(tagVertexRow, &e.vindex, id, name)
}

// RemoveEdgeProp implements core.Engine.
func (e *Engine) RemoveEdgeProp(id core.ID, name string) error {
	return e.removeProp(tagEdgeRow, &noIndex, id, name)
}

// propsOf is a row scan over the property columns.
func (e *Engine) propsOf(tag byte, id core.ID) (core.Props, error) {
	if !e.has(tag, id) {
		return nil, core.ErrNotFound
	}
	p := core.Props{}
	e.kv.ScanPrefix(rowKey(tag, id, colProp), func(k, v []byte) bool {
		tok := binary.BigEndian.Uint32(k[rowPrefixLen:])
		p[e.propKeys.Name(tok)] = decodeValue(v)
		return true
	})
	if len(p) == 0 {
		return nil, nil
	}
	return p, nil
}

func (e *Engine) propOf(tag byte, id core.ID, name string) (core.Value, bool) {
	if !e.has(tag, id) {
		return core.Nil, false
	}
	tok, ok := e.propKeys.Lookup(name)
	if !ok {
		return core.Nil, false
	}
	b, ok := e.kv.Get(propKey(tag, id, tok))
	if !ok {
		return core.Nil, false
	}
	return decodeValue(b), true
}

func (e *Engine) setProp(tag byte, idx *kit.PropIndex, id core.ID, name string, v core.Value) error {
	if !e.has(tag, id) {
		return core.ErrNotFound
	}
	e.kv.Tx(func() {
		e.checkedWrite(tag, id)
		if idx.Has(name) {
			if old, had := e.propOf(tag, id, name); had {
				idx.Remove(name, old, id)
			}
			idx.Add(name, v, id)
		}
		e.kv.Put(propKey(tag, id, e.ensureProp(name)), encodeValue(v))
	})
	return nil
}

// removeProp is a tombstone write.
func (e *Engine) removeProp(tag byte, idx *kit.PropIndex, id core.ID, name string) error {
	if !e.has(tag, id) {
		return core.ErrNotFound
	}
	if tok, ok := e.propKeys.Lookup(name); ok {
		if idx.Has(name) {
			if old, had := e.propOf(tag, id, name); had {
				idx.Remove(name, old, id)
			}
		}
		e.kv.Delete(propKey(tag, id, tok))
	}
	return nil
}

// --- scans ---

// CountVertices implements core.Engine: a full scan over vertex
// existence columns (every probe pays the LSM read path).
func (e *Engine) CountVertices() (int64, error) { return e.countRows(tagVertexRow), nil }

// CountEdges implements core.Engine.
func (e *Engine) CountEdges() (int64, error) { return e.countRows(tagEdgeRow), nil }

func (e *Engine) countRows(tag byte) int64 {
	var n int64
	e.kv.ScanPrefix([]byte{tag}, func(k, _ []byte) bool {
		if k[rowPrefixLen-1] == colExists {
			n++
		}
		return true
	})
	return n
}

func (e *Engine) scanRows(tag byte) []core.ID {
	var out []core.ID
	e.kv.ScanPrefix([]byte{tag}, func(k, _ []byte) bool {
		if k[rowPrefixLen-1] == colExists {
			id, _ := enc.TakeUint64(k[1:])
			out = append(out, core.ID(id))
		}
		return true
	})
	return out
}

// Vertices implements core.Engine.
func (e *Engine) Vertices() core.Iter[core.ID] {
	return core.SliceIter(e.scanRows(tagVertexRow))
}

// Edges implements core.Engine.
func (e *Engine) Edges() core.Iter[core.ID] {
	return core.SliceIter(e.scanRows(tagEdgeRow))
}

// VerticesByProp implements core.Engine: an index lookup when a
// graph-centric index exists (the 2–5 orders-of-magnitude effect of
// Figure 4(c)), a full scan with per-row probes otherwise.
func (e *Engine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	return e.byProp(tagVertexRow, &e.vindex, name, v)
}

// EdgesByProp implements core.Engine.
func (e *Engine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	return e.byProp(tagEdgeRow, &noIndex, name, v)
}

// byProp answers from idx when it indexes name, and otherwise scans the
// rows under tag, comparing each one's encoded value.
func (e *Engine) byProp(tag byte, idx *kit.PropIndex, name string, v core.Value) core.Iter[core.ID] {
	if ids, ok := idx.Lookup(name, v); ok {
		return core.SliceIter(ids)
	}
	tok, ok := e.propKeys.Lookup(name)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	want := encodeValue(v)
	return core.FilterIter(core.SliceIter(e.scanRows(tag)), func(id core.ID) bool {
		b, ok := e.kv.Get(propKey(tag, id, tok))
		return ok && string(b) == string(want)
	})
}

// EdgesByLabel implements core.Engine: scan + per-edge row decode.
func (e *Engine) EdgesByLabel(label string) core.Iter[core.ID] {
	tok, ok := e.labels.Lookup(label)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	return core.FilterIter(e.Edges(), func(id core.ID) bool {
		_, _, got, ok := e.edgeRow(id)
		return ok && got == tok
	})
}

// --- traversal ---

// IncidentEdges implements core.Engine.
func (e *Engine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return e.adjacency(id, d, labels, false)
}

// Neighbors implements core.Engine: the neighbour is decoded from the
// adjacency column itself, no edge-row access needed.
func (e *Engine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return e.adjacency(id, d, labels, true)
}

// adjacency is a row-prefix scan per direction; label filters narrow
// the scanned column range (vertex-centric access). Each adjacency
// column yields its edge id or, with neighbours set, its neighbour.
func (e *Engine) adjacency(id core.ID, d core.Direction, labels []string, neighbours bool) core.Iter[core.ID] {
	if !e.HasVertex(id) {
		return core.EmptyIter[core.ID]()
	}
	collect := func(kind byte, skipLoops bool) []core.ID {
		var out []core.ID
		scan := func(prefix []byte) {
			e.kv.ScanPrefix(prefix, func(k, _ []byte) bool {
				_, other, eid := parseEdgeCol(id, k)
				if skipLoops && other == id {
					return true
				}
				if neighbours {
					eid = other
				}
				out = append(out, eid)
				return true
			})
		}
		var buf [rowPrefixLen + 4]byte
		if len(labels) == 0 {
			scan(appendRowKey(buf[:0], tagVertexRow, id, kind))
		}
		for _, l := range labels {
			if tok, ok := e.labels.Lookup(l); ok {
				scan(appendEdgeColPrefix(buf[:0], id, kind, tok))
			}
		}
		return out
	}
	switch d {
	case core.DirOut:
		return core.SliceIter(collect(colOutEdge, false))
	case core.DirIn:
		return core.SliceIter(collect(colInEdge, false))
	default:
		both := collect(colOutEdge, false)
		both = append(both, collect(colInEdge, true)...)
		return core.SliceIter(both)
	}
}

// Degree implements core.Engine.
func (e *Engine) Degree(id core.ID, d core.Direction) (int64, error) {
	return kit.Degree(e, id, d)
}

// --- index / bulk / space ---

// BuildVertexPropIndex implements core.Engine (graph-centric index).
func (e *Engine) BuildVertexPropIndex(name string) error {
	if e.vindex.Build(name, e.Vertices, e.VertexProp) && e.kv.Durable() {
		e.kv.Put(metaIndexKey(name), nil)
	}
	return nil
}

// HasVertexPropIndex implements core.Engine.
func (e *Engine) HasVertexPropIndex(name string) bool { return e.vindex.Has(name) }

// BulkLoad implements core.Engine through the schema-first path the
// paper had to configure (consistency checks and schema inference
// disabled): all columns are built, sorted once, and installed as a
// single SSTable.
func (e *Engine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	if e.closed {
		return nil, core.ErrClosed
	}
	e.CapturePlanStats(g)
	if e.nextID != 0 {
		return kit.LoadPerItem(e, g)
	}
	res := core.NewLoadResult(g)
	nv := int64(g.NumVertices())
	for i := range res.VertexIDs {
		res.VertexIDs[i] = core.ID(e.nextID + int64(i))
	}
	for i := range res.EdgeIDs {
		res.EdgeIDs[i] = core.ID(e.nextID + nv + int64(i))
	}
	e.nextID += nv + int64(g.NumEdges())
	// Fresh engine (nextID was 0 above): the snapshot's label table is
	// exactly the token set this load interns, so pre-size the
	// dictionary. Tokens still assign in first-encounter order.
	snap := g.Snapshot()
	e.labels.Reserve(len(snap.Labels))
	// pairs encodes every pair into the scratch buffers k and v and
	// hands it to add: one exists row per object, three rows per edge
	// (edge row + out/in columns), one row per property. The first
	// pass interns the tokens and counts the pairs and their bytes; the
	// second copies each pair once, into a batch of exactly that size,
	// which becomes the store's run.
	var k, v []byte
	pairs := func(add func(k, v []byte)) {
		for i, id := range res.VertexIDs {
			k = appendRowKey(k[:0], tagVertexRow, id, colExists)
			add(k, nil)
			for name, val := range g.VProps[i] {
				k = appendPropKey(k[:0], tagVertexRow, id, e.propKeys.Intern(name))
				v = appendValue(v[:0], val)
				add(k, v)
			}
		}
		for i, eid := range res.EdgeIDs {
			er := &g.EdgeL[i]
			src, dst := res.VertexIDs[er.Src], res.VertexIDs[er.Dst]
			tok := e.labels.Intern(er.Label)
			k = appendRowKey(k[:0], tagEdgeRow, eid, colExists)
			v = appendEdgeRow(v[:0], src, dst, tok)
			add(k, v)
			k = appendEdgeColKey(k[:0], src, colOutEdge, tok, dst, eid)
			add(k, nil)
			k = appendEdgeColKey(k[:0], dst, colInEdge, tok, src, eid)
			add(k, nil)
			for name, val := range er.Props {
				k = appendPropKey(k[:0], tagEdgeRow, eid, e.propKeys.Intern(name))
				v = appendValue(v[:0], val)
				add(k, v)
			}
		}
	}
	n, size := 0, 0
	pairs(func(k, v []byte) { n, size = n+1, size+len(k)+len(v) })
	var mk, mv [][]byte
	if e.kv.Durable() {
		// BulkLoad replaces the store's entire contents, so the meta
		// snapshot (dictionaries, allocator, index definitions) rides in
		// the same pair set; 'M' sorts between the 'E' and 'V' rows.
		mk, mv = e.metaPairs()
		for i := range mk {
			size += len(mk[i]) + len(mv[i])
		}
	}
	b := lsm.NewBatch(n+len(mk), size)
	pairs(b.Add)
	for i := range mk {
		b.Add(mk[i], mv[i])
	}
	b.Sort()
	if err := e.kv.BulkLoad(b); err != nil {
		return nil, err
	}
	return res, nil
}

// SpaceUsage implements core.Engine.
func (e *Engine) SpaceUsage() core.SpaceReport {
	var r core.SpaceReport
	r.Add("lsm-store", e.kv.Bytes())
	r.Add("schema", e.labels.Bytes()+e.propKeys.Bytes())
	r.Add("graph-indexes", e.vindex.Bytes())
	return r
}

// Stats exposes the LSM internals (flushes, compactions, cache) for
// tests and reports.
func (e *Engine) Stats() (flushes, compacts, runs, cacheHits, cacheMisses int) {
	return e.kv.Stats()
}

// Clone returns an independent engine in e's state: a copy of the LSM
// store (see lsm.Store.Clone), the dictionaries and the indexes. Writes
// into either engine never reach the other. A durable engine cannot be
// copied and returns core.ErrUnsupported.
func (e *Engine) Clone() (core.Engine, error) {
	kv, err := e.kv.Clone()
	if err != nil {
		return nil, core.ErrUnsupported
	}
	c := &Engine{version: e.version, closed: e.closed, store: store{
		kv:       kv,
		labels:   e.labels.Clone(),
		propKeys: e.propKeys.Clone(),
		nextID:   e.nextID,
		vindex:   e.vindex.Clone(),
	}}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

// Close implements core.Engine. In durable mode this first syncs and
// closes the WAL. Then the LSM store, the dictionaries and the indexes
// go; what is left is an empty in-memory store of the same version.
func (e *Engine) Close() error {
	err := e.kv.Close()
	e.store, e.closed = newStore(e.version), true
	e.ReleasePlanStats()
	return err
}
