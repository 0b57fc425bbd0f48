package sqlg

import (
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/engines/kit"
	"repro/internal/rel"
)

// --- vertex CRUD ---

// AddVertex implements core.Engine: a tuple insert, plus ALTER TABLE for
// any property name the schema has not seen.
func (e *Engine) AddVertex(props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	for k := range props {
		ensureColumn(e.vtab, k)
	}
	id := e.nextVertex
	e.nextVertex++
	if err := e.vtab.Insert(propsToRow(e.vtab, props, core.I(id))); err != nil {
		return core.NoID, err
	}
	return core.ID(id), nil
}

// HasVertex implements core.Engine.
func (e *Engine) HasVertex(id core.ID) bool {
	t := e.vertexTable(id)
	return id >= 0 && t != nil && t.Has(int64(id))
}

// RemoveVertex implements core.Engine: cascading deletes through the
// src/dst foreign-key indexes of every edge table.
func (e *Engine) RemoveVertex(id core.ID) error {
	if !e.HasVertex(id) {
		return core.ErrNotFound
	}
	key := core.I(int64(id))
	for _, t := range e.etabs {
		var doomed []int64
		t.SelectEqAt(colSrc, key, func(r rel.Row) bool {
			doomed = append(doomed, r[0].Int())
			return true
		})
		t.SelectEqAt(colDst, key, func(r rel.Row) bool {
			doomed = append(doomed, r[0].Int())
			return true
		})
		for _, eid := range doomed {
			// A loop edge is collected twice; the second delete is a no-op.
			if t.Has(eid) {
				if err := t.Delete(eid); err != nil {
					return err
				}
			}
		}
	}
	return e.vtab.Delete(int64(id))
}

// --- edge CRUD ---

// AddEdge implements core.Engine: an insert into the label's join table.
func (e *Engine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	if e.closed {
		return core.NoID, core.ErrClosed
	}
	if !e.HasVertex(src) || !e.HasVertex(dst) {
		return core.NoID, core.ErrNotFound
	}
	t, ti := e.edgeTable(label)
	for k := range props {
		ensureColumn(t, k)
	}
	id := makeEdgeID(ti, e.nextEdge)
	e.nextEdge++
	row := propsToRow(t, props, core.I(int64(id)), core.I(int64(src)), core.I(int64(dst)))
	if err := t.Insert(row); err != nil {
		return core.NoID, err
	}
	return id, nil
}

// vertexTable returns the vertex table for a vertex id and nil for an
// edge id; edgeTableOf returns the join table an edge id names, or nil.
// Neither checks that the row exists.
func (e *Engine) vertexTable(id core.ID) *rel.Table {
	if _, isEdge := splitEdgeID(id); isEdge {
		return nil
	}
	return e.vtab
}

func (e *Engine) edgeTableOf(id core.ID) *rel.Table {
	ti, isEdge := splitEdgeID(id)
	if !isEdge || ti >= len(e.etabs) {
		return nil
	}
	return e.etabs[ti]
}

// HasEdge implements core.Engine.
func (e *Engine) HasEdge(id core.ID) bool {
	t := e.edgeTableOf(id)
	return t != nil && t.Has(int64(id))
}

// EdgeLabel implements core.Engine: the label is the table.
func (e *Engine) EdgeLabel(id core.ID) (string, error) {
	if !e.HasEdge(id) {
		return "", core.ErrNotFound
	}
	ti, _ := splitEdgeID(id)
	return e.labels.Name(uint32(ti)), nil
}

// EdgeEnds implements core.Engine.
func (e *Engine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	t := e.edgeTableOf(id)
	if t == nil {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	r, ok := t.Get(int64(id))
	if !ok {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	return core.ID(r[colSrc].Int()), core.ID(r[colDst].Int()), nil
}

// RemoveEdge implements core.Engine.
func (e *Engine) RemoveEdge(id core.ID) error {
	t := e.edgeTableOf(id)
	if t == nil || !t.Has(int64(id)) {
		return core.ErrNotFound
	}
	return t.Delete(int64(id))
}

// --- properties: one body per operation, for vertices and edges ---

// VertexProps implements core.Engine.
func (e *Engine) VertexProps(id core.ID) (core.Props, error) {
	return propsOf(e.vertexTable(id), id, 1)
}

// EdgeProps implements core.Engine.
func (e *Engine) EdgeProps(id core.ID) (core.Props, error) { return propsOf(e.edgeTableOf(id), id, 3) }

// VertexProp implements core.Engine.
func (e *Engine) VertexProp(id core.ID, name string) (core.Value, bool) {
	return propOf(e.vertexTable(id), id, name)
}

// EdgeProp implements core.Engine.
func (e *Engine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	return propOf(e.edgeTableOf(id), id, name)
}

// SetVertexProp implements core.Engine.
func (e *Engine) SetVertexProp(id core.ID, name string, v core.Value) error {
	return setProp(e.vertexTable(id), id, name, v)
}

// SetEdgeProp implements core.Engine.
func (e *Engine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	return setProp(e.edgeTableOf(id), id, name, v)
}

// RemoveVertexProp implements core.Engine.
func (e *Engine) RemoveVertexProp(id core.ID, name string) error {
	return removeProp(e.vertexTable(id), id, name)
}

// RemoveEdgeProp implements core.Engine.
func (e *Engine) RemoveEdgeProp(id core.ID, name string) error {
	return removeProp(e.edgeTableOf(id), id, name)
}

func propsOf(t *rel.Table, id core.ID, first int) (core.Props, error) {
	if t == nil {
		return nil, core.ErrNotFound
	}
	r, ok := t.Get(int64(id))
	if !ok {
		return nil, core.ErrNotFound
	}
	return rowToProps(t, r, first), nil
}

func propOf(t *rel.Table, id core.ID, name string) (core.Value, bool) {
	if t == nil {
		return core.Nil, false
	}
	v, ok := t.Value(int64(id), name)
	if !ok || v.IsNil() {
		return core.Nil, false
	}
	return v, true
}

// setProp is an UPDATE, with ALTER TABLE for a new property name.
func setProp(t *rel.Table, id core.ID, name string, v core.Value) error {
	if t == nil || !t.Has(int64(id)) {
		return core.ErrNotFound
	}
	ensureColumn(t, name)
	return t.Update(int64(id), name, v)
}

// removeProp is SET NULL.
func removeProp(t *rel.Table, id core.ID, name string) error {
	if t == nil || !t.Has(int64(id)) {
		return core.ErrNotFound
	}
	if !t.HasColumn(name) {
		return nil
	}
	return t.Update(int64(id), name, core.Nil)
}

// --- scans ---

// CountVertices implements core.Engine: COUNT(*) heap scan.
func (e *Engine) CountVertices() (int64, error) {
	var n int64
	e.vtab.Scan(func(rel.Row) bool { n++; return true })
	return n, nil
}

// CountEdges implements core.Engine: a UNION ALL of counts over every
// edge table.
func (e *Engine) CountEdges() (int64, error) {
	var n int64
	for _, t := range e.etabs {
		t.Scan(func(rel.Row) bool { n++; return true })
	}
	return n, nil
}

// Vertices implements core.Engine.
func (e *Engine) Vertices() core.Iter[core.ID] {
	ids := e.vtab.SortedIDs()
	out := make([]core.ID, len(ids))
	for i, id := range ids {
		out[i] = core.ID(id)
	}
	return core.SliceIter(out)
}

// Edges implements core.Engine: union over the edge tables.
func (e *Engine) Edges() core.Iter[core.ID] {
	var out []core.ID
	for _, t := range e.etabs {
		for _, id := range t.SortedIDs() {
			out = append(out, core.ID(id))
		}
	}
	slices.Sort(out)
	return core.SliceIter(out)
}

// VerticesByProp implements core.Engine: one relational predicate scan,
// or an index seek when the user created an attribute index — the
// planner choice measured by Figure 4(c).
func (e *Engine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	return byProp([]*rel.Table{e.vtab}, name, v)
}

// EdgesByProp implements core.Engine: the same predicate over every
// edge table.
func (e *Engine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	return byProp(e.etabs, name, v)
}

// byProp selects the rows whose column name equals v from each table
// that has the column.
func byProp(tabs []*rel.Table, name string, v core.Value) core.Iter[core.ID] {
	var out []core.ID
	for _, t := range tabs {
		if !t.HasColumn(name) {
			continue
		}
		t.SelectEq(name, v, func(r rel.Row) bool {
			out = append(out, core.ID(r[0].Int()))
			return true
		})
	}
	slices.Sort(out)
	return core.SliceIter(out)
}

// EdgesByLabel implements core.Engine: a single-table scan — the
// relational layout's home game (an order of magnitude faster than the
// native engines in the paper).
func (e *Engine) EdgesByLabel(label string) core.Iter[core.ID] {
	i, ok := e.labels.Lookup(label)
	if !ok {
		return core.EmptyIter[core.ID]()
	}
	var out []core.ID
	e.etabs[i].Scan(func(r rel.Row) bool {
		out = append(out, core.ID(r[0].Int()))
		return true
	})
	slices.Sort(out)
	return core.SliceIter(out)
}

// --- traversal ---

// tablesFor returns the edge tables a hop must consult: one per
// requested label, or all of them for an unfiltered hop (the union the
// paper blames for Sqlg's traversal cost).
func (e *Engine) tablesFor(labels []string) []*rel.Table {
	if len(labels) == 0 {
		return e.etabs
	}
	var out []*rel.Table
	for _, l := range labels {
		if i, ok := e.labels.Lookup(l); ok {
			out = append(out, e.etabs[i])
		}
	}
	return out
}

// IncidentEdges implements core.Engine: an indexed join per table.
func (e *Engine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return e.join(id, d, labels, false)
}

// Neighbors implements core.Engine: the same joins, projecting the far
// endpoint column instead of the edge id.
func (e *Engine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return e.join(id, d, labels, true)
}

// join selects the rows of id's edges from each table a hop consults:
// through the src index for out-edges, the dst index for in-edges. A
// row's columns are id, src, dst; it yields the edge id or, with far
// set, the other endpoint.
func (e *Engine) join(id core.ID, d core.Direction, labels []string, far bool) core.Iter[core.ID] {
	if !e.HasVertex(id) {
		return core.EmptyIter[core.ID]()
	}
	key := core.I(int64(id))
	outCol, inCol := 0, 0
	if far {
		outCol, inCol = colDst, colSrc
	}
	var out []core.ID
	for _, t := range e.tablesFor(labels) {
		if d == core.DirOut || d == core.DirBoth {
			t.SelectEqAt(colSrc, key, func(r rel.Row) bool {
				out = append(out, core.ID(r[outCol].Int()))
				return true
			})
		}
		if d == core.DirIn || d == core.DirBoth {
			t.SelectEqAt(colDst, key, func(r rel.Row) bool {
				if d == core.DirBoth && r[colSrc].Compare(r[colDst]) == 0 {
					return true // loop already collected by the src join
				}
				out = append(out, core.ID(r[inCol].Int()))
				return true
			})
		}
	}
	return core.SliceIter(out)
}

// Degree implements core.Engine: indexed counts over every edge table.
func (e *Engine) Degree(id core.ID, d core.Direction) (int64, error) {
	return kit.Degree(e, id, d)
}

// --- index / bulk / space ---

// BuildVertexPropIndex implements core.Engine: CREATE INDEX.
func (e *Engine) BuildVertexPropIndex(name string) error {
	ensureColumn(e.vtab, name)
	if err := e.vtab.CreateIndex(name); err != nil {
		return err
	}
	e.vindexed[name] = true
	return nil
}

// HasVertexPropIndex implements core.Engine.
func (e *Engine) HasVertexPropIndex(name string) bool { return e.vindexed[name] }

// BulkLoad implements core.Engine: schema first (one ALTER-free CREATE
// per label with all property columns known up front), then COPY-style
// row inserts.
func (e *Engine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	if e.closed {
		return nil, core.ErrClosed
	}
	e.CapturePlanStats(g)
	res := core.NewLoadResult(g)
	// Collect the vertex schema.
	for i := range g.VProps {
		for k := range g.VProps[i] {
			ensureColumn(e.vtab, k)
		}
	}
	e.vtab.Reserve(g.NumVertices())
	for i := range g.VProps {
		id := e.nextVertex
		e.nextVertex++
		if err := e.vtab.Insert(propsToRow(e.vtab, g.VProps[i], core.I(id))); err != nil {
			return nil, err
		}
		res.VertexIDs[i] = core.ID(id)
	}
	// Edge schemas per label.
	for i := range g.EdgeL {
		t, _ := e.edgeTable(g.EdgeL[i].Label)
		for k := range g.EdgeL[i].Props {
			ensureColumn(t, k)
		}
	}
	// Every label's table now exists (created above, in first-encounter
	// order, which fixes the table-id part of the edge IDs); reserve
	// each to its exact row count from the snapshot's per-label slices.
	snap := g.Snapshot()
	for li, label := range snap.Labels {
		t, _ := e.edgeTable(label)
		t.Reserve(snap.LabelEdgeCount(li))
	}
	for i := range g.EdgeL {
		er := &g.EdgeL[i]
		t, ti := e.edgeTable(er.Label)
		id := makeEdgeID(ti, e.nextEdge)
		e.nextEdge++
		src, dst := core.I(int64(res.VertexIDs[er.Src])), core.I(int64(res.VertexIDs[er.Dst]))
		if err := t.Insert(propsToRow(t, er.Props, core.I(int64(id)), src, dst)); err != nil {
			return nil, err
		}
		res.EdgeIDs[i] = id
	}
	return res, nil
}

// SpaceUsage implements core.Engine.
func (e *Engine) SpaceUsage() core.SpaceReport {
	var r core.SpaceReport
	r.Add("vertex-table", e.vtab.Bytes())
	var eb int64
	for _, t := range e.etabs {
		eb += t.Bytes()
	}
	r.Add("edge-tables", eb)
	return r
}

// Clone returns an independent engine in e's state: a copy of every
// table and index. Writes into either engine never reach the other.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{store: e.store.clone(), closed: e.closed}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

func (s *store) clone() store {
	c := store{
		db:         s.db.Clone(),
		etabs:      make([]*rel.Table, len(s.etabs), cap(s.etabs)),
		labels:     s.labels.Clone(),
		nextVertex: s.nextVertex,
		nextEdge:   s.nextEdge,
		vindexed:   maps.Clone(s.vindexed),
	}
	c.vtab = c.db.Table(s.vtab.Name())
	for i, t := range s.etabs {
		c.etabs[i] = c.db.Table(t.Name())
	}
	return c
}

// Close implements core.Engine: the tables and their indexes go.
func (e *Engine) Close() error {
	e.store, e.closed = newStore(), true
	e.ReleasePlanStats()
	return nil
}
