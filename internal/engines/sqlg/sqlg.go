// Package sqlg implements the hybrid engine modelled on Sqlg over
// Postgres as the paper characterizes it: Apache TinkerPop implemented
// on a relational engine (internal/rel plays the Postgres role).
//
// Architecture reproduced (Section 3.2):
//
//   - one table for vertices and one join table per edge label, with
//     primary-key and foreign-key (src/dst) B+Tree indexes;
//   - a single-label hop is an indexed join on one table — the fast path
//     behind Sqlg winning half the complex queries in Figure 2;
//   - an *unfiltered* hop must union joins over every edge table, so
//     traversals on label-rich graphs (Freebase: thousands of labels)
//     pay a per-hop cost proportional to label cardinality — the slow
//     BFS/shortest-path behaviour of Figures 6 and 7;
//   - property search is a relational scan (fast relative to the native
//     engines' property-chain walks) and becomes an index seek once the
//     user creates an attribute index — the up-to-600× speed-up of
//     Figure 4(c);
//   - setting a property name the schema has not seen is ALTER TABLE,
//     i.e. a row rewrite — the slow CUD path the paper observes "where
//     it has to change the table structure".
package sqlg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engines/kit"
	"repro/internal/rel"
)

// Edge IDs carry their label table in the top bits (vertices use table
// index 0).
const tableBits = 44

func makeEdgeID(tableIdx int, seq int64) core.ID {
	return core.ID(int64(tableIdx+1)<<tableBits | seq)
}

func splitEdgeID(id core.ID) (tableIdx int, ok bool) {
	t := int(int64(id) >> tableBits)
	return t - 1, t >= 1
}

// Engine is a Sqlg-style relational graph store.
type Engine struct {
	core.PlanStatsHolder
	store
	closed bool
}

// store is the engine's data: New starts it empty, and Close swaps it
// for an empty one so that a closed engine pins nothing.
type store struct {
	db         *rel.DB
	vtab       *rel.Table
	etabs      []*rel.Table // per label
	labels     kit.Tokens   // token = index into etabs
	nextVertex int64
	nextEdge   int64
	vindexed   map[string]bool
}

func newStore() store {
	db := rel.NewDB()
	vt, err := db.CreateTable("V", "id")
	if err != nil {
		panic("sqlg: " + err.Error())
	}
	return store{db: db, vtab: vt, vindexed: make(map[string]bool)}
}

// New returns an empty engine.
func New() *Engine { return &Engine{store: newStore()} }

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "sqlg",
		Kind:          core.KindHybrid,
		Substrate:     "Relational",
		Storage:       "Tables",
		EdgeTraversal: "Table join",
		Gremlin:       "3.2",
		Execution:     "SQL, optimized",
	}
}

// An edge table's columns are id, src, dst; its rows are probed through
// the src and dst indexes by position.
const colSrc, colDst = 1, 2

func (e *Engine) edgeTable(label string) (*rel.Table, int) {
	if i, ok := e.labels.Lookup(label); ok {
		return e.etabs[i], int(i)
	}
	name := "E_" + label
	t, err := e.db.CreateTable(name, "id", "src", "dst")
	if err != nil {
		// Label collision after sanitization: disambiguate.
		name = fmt.Sprintf("E_%s_%d", label, len(e.etabs))
		t, err = e.db.CreateTable(name, "id", "src", "dst")
		if err != nil {
			panic("sqlg: " + err.Error())
		}
	}
	// Foreign-key indexes, as Sqlg creates for endpoint columns.
	if err := t.CreateIndex("src"); err != nil {
		panic("sqlg: " + err.Error())
	}
	if err := t.CreateIndex("dst"); err != nil {
		panic("sqlg: " + err.Error())
	}
	e.etabs = append(e.etabs, t)
	return t, int(e.labels.Intern(label))
}

// ensureColumn adds a property column, paying the ALTER TABLE row
// rewrite when the name is new to the table.
func ensureColumn(t *rel.Table, col string) {
	if !t.HasColumn(col) {
		_ = t.AlterAddColumn(col)
	}
}

// rowToProps converts a row to a property set, skipping system columns
// and NULLs.
func rowToProps(t *rel.Table, r rel.Row, skip int) core.Props {
	cols := t.Columns()
	p := core.Props{}
	for i := skip; i < len(r); i++ {
		if !r[i].IsNil() {
			p[cols[i]] = r[i]
		}
	}
	if len(p) == 0 {
		return nil
	}
	return p
}

// propsToRow is rowToProps' inverse: a row of t holding the system
// columns sys, then each property in its column and NULL elsewhere.
func propsToRow(t *rel.Table, props core.Props, sys ...core.Value) rel.Row {
	cols := t.Columns()
	row := make(rel.Row, len(cols))
	copy(row, sys)
	for i := len(sys); i < len(cols); i++ {
		if v, ok := props[cols[i]]; ok {
			row[i] = v
		}
	}
	return row
}

// ConcurrentWrites implements core.ConcurrentWriter: the relational
// tables are mutated only by write operations and the planner's
// read-side counters are atomics, so under core.Guard's
// exclusive-writer discipline mixed read/write workloads are
// serial-schedule consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
