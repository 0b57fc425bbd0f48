// Package rel implements a miniature relational engine: tables of typed
// rows with an int64 primary key, secondary B+Tree indexes, equality
// selection with a scan-vs-index planner, indexed joins, and
// ALTER TABLE.
//
// It is the "Postgres" under the Sqlg-style engine. The paper's Sqlg
// findings are architectural consequences reproduced here: per-label
// vertex/edge tables make single-label hops an indexed join (fast), but
// unfiltered traversals must union joins over *every* edge table and
// build large intermediates (slow); adding a property that has no column
// yet is a table rewrite (slow CUD on fresh property names).
package rel

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/enc"
)

// Row is one tuple. Column 0 is always the int64 primary key "id".
type Row []core.Value

// Table is a heap of rows plus indexes.
type Table struct {
	name   string
	cols   []string
	colIdx map[string]int
	rows   []Row         // position-addressed; nil = deleted
	pk     map[int64]int // id -> position
	// indexes holds the secondary index on each column by position,
	// nil where there is none.
	indexes []*btree.Tree
	// keyBuf is where writes encode index keys, which the trees copy.
	keyBuf []byte
	// scans and seeks are atomic: they are incremented on read paths,
	// which may run concurrently (see core.Engine's concurrent-read
	// contract).
	scans atomic.Int64 // planner statistics: full scans performed
	seeks atomic.Int64 // planner statistics: index lookups performed
}

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
	order  []string
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// CreateTable creates a table. The column list must start with "id".
func (db *DB) CreateTable(name string, cols ...string) (*Table, error) {
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("rel: table %q already exists", name)
	}
	if len(cols) == 0 || cols[0] != "id" {
		return nil, fmt.Errorf("rel: table %q: first column must be \"id\"", name)
	}
	t := &Table{
		name:    name,
		cols:    append([]string(nil), cols...),
		colIdx:  make(map[string]int, len(cols)),
		pk:      make(map[int64]int),
		indexes: make([]*btree.Tree, len(cols)),
	}
	for i, c := range cols {
		if _, dup := t.colIdx[c]; dup {
			return nil, fmt.Errorf("rel: table %q: duplicate column %q", name, c)
		}
		t.colIdx[c] = i
	}
	db.tables[name] = t
	db.order = append(db.order, name)
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Tables returns table names in creation order.
func (db *DB) Tables() []string { return append([]string(nil), db.order...) }

// Bytes returns the approximate footprint of all tables and indexes.
func (db *DB) Bytes() int64 {
	var n int64
	for _, t := range db.tables {
		n += t.Bytes()
	}
	return n
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names without copying them. The slice is
// read-only: its capacity equals its length, so an append to it copies
// rather than writing into the table, and a later AlterAddColumn leaves
// it as it was.
func (t *Table) Columns() []string { return t.cols[:len(t.cols):len(t.cols)] }

// HasColumn reports whether the column exists.
func (t *Table) HasColumn(col string) bool { _, ok := t.colIdx[col]; return ok }

// Len returns the live row count.
func (t *Table) Len() int { return len(t.pk) }

// Stats returns planner counters (full scans, index seeks) for tests and
// the harness's explain output.
func (t *Table) Stats() (scans, seeks int) { return int(t.scans.Load()), int(t.seeks.Load()) }

// Reserve grows the table's row storage for n additional rows without
// reallocation, and pre-sizes the primary-key map when the table is
// still empty — the bulk-load pre-sizing hook. Contents are unchanged.
func (t *Table) Reserve(n int) {
	if n <= 0 {
		return
	}
	t.rows = slices.Grow(t.rows, n)
	if len(t.pk) == 0 {
		t.pk = make(map[int64]int, n)
	}
}

// Insert adds a row; the row's arity must match the schema and its id
// must be fresh.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.cols) {
		return fmt.Errorf("rel: %s: row arity %d != %d", t.name, len(r), len(t.cols))
	}
	id := r[0].Int()
	if r[0].Kind() != core.KindInt {
		return fmt.Errorf("rel: %s: id must be int, got %v", t.name, r[0].Kind())
	}
	if _, dup := t.pk[id]; dup {
		return fmt.Errorf("rel: %s: duplicate key %d", t.name, id)
	}
	pos := len(t.rows)
	t.rows = append(t.rows, append(Row(nil), r...))
	t.pk[id] = pos
	for ci, idx := range t.indexes {
		if idx != nil {
			idx.Put(t.indexKey(r[ci], pos), nil)
		}
	}
	return nil
}

// Has reports whether a row with the given id exists, without copying it.
func (t *Table) Has(id int64) bool { _, ok := t.pk[id]; return ok }

// Get returns the row with the given id (as a copy).
func (t *Table) Get(id int64) (Row, bool) {
	pos, ok := t.pk[id]
	if !ok {
		return nil, false
	}
	return append(Row(nil), t.rows[pos]...), true
}

// Value returns one cell of the row with the given id.
func (t *Table) Value(id int64, col string) (core.Value, bool) {
	pos, ok := t.pk[id]
	if !ok {
		return core.Nil, false
	}
	ci, ok := t.colIdx[col]
	if !ok {
		return core.Nil, false
	}
	return t.rows[pos][ci], true
}

// Update sets one cell, maintaining indexes.
func (t *Table) Update(id int64, col string, v core.Value) error {
	pos, ok := t.pk[id]
	if !ok {
		return fmt.Errorf("rel: %s: no row %d", t.name, id)
	}
	ci, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("rel: %s: no column %q", t.name, col)
	}
	if ci == 0 {
		return fmt.Errorf("rel: %s: cannot update primary key", t.name)
	}
	if idx := t.indexes[ci]; idx != nil {
		idx.Delete(t.indexKey(t.rows[pos][ci], pos))
		idx.Put(t.indexKey(v, pos), nil)
	}
	t.rows[pos][ci] = v
	return nil
}

// Delete removes the row with the given id.
func (t *Table) Delete(id int64) error {
	pos, ok := t.pk[id]
	if !ok {
		return fmt.Errorf("rel: %s: no row %d", t.name, id)
	}
	for ci, idx := range t.indexes {
		if idx != nil {
			idx.Delete(t.indexKey(t.rows[pos][ci], pos))
		}
	}
	t.rows[pos] = nil
	delete(t.pk, id)
	return nil
}

// AlterAddColumn adds a column initialized to Nil. As in a row store,
// every live row is rewritten — the cost the Sqlg engine pays the first
// time a new property name is set on a label.
func (t *Table) AlterAddColumn(col string) error {
	if t.HasColumn(col) {
		return fmt.Errorf("rel: %s: column %q exists", t.name, col)
	}
	t.colIdx[col] = len(t.cols)
	t.cols = append(t.cols, col)
	t.indexes = append(t.indexes, nil)
	for pos, r := range t.rows {
		if r == nil {
			continue
		}
		nr := make(Row, len(t.cols))
		copy(nr, r)
		t.rows[pos] = nr
	}
	return nil
}

// CreateIndex builds a secondary B+Tree index on col.
func (t *Table) CreateIndex(col string) error {
	ci, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("rel: %s: no column %q", t.name, col)
	}
	if t.indexes[ci] != nil {
		return nil
	}
	idx := btree.New()
	for pos, r := range t.rows {
		if r == nil {
			continue
		}
		idx.Put(t.indexKey(r[ci], pos), nil)
	}
	t.indexes[ci] = idx
	return nil
}

// HasIndex reports whether an index on col exists.
func (t *Table) HasIndex(col string) bool {
	ci, ok := t.colIdx[col]
	return ok && t.indexes[ci] != nil
}

// indexKey encodes the index key of value v at row pos into t.keyBuf;
// the key is valid until the next call.
func (t *Table) indexKey(v core.Value, pos int) []byte {
	t.keyBuf = enc.Uint64(enc.Value(t.keyBuf[:0], v), uint64(pos))
	return t.keyBuf
}

// Scan calls fn for every live row (as a direct view; do not mutate)
// until fn returns false.
func (t *Table) Scan(fn func(Row) bool) {
	t.scans.Add(1)
	for _, r := range t.rows {
		if r != nil && !fn(r) {
			return
		}
	}
}

// SelectEq streams rows whose col equals v, using the index when one
// exists (index seek) and a full scan otherwise — the planner choice
// whose effect Figure 4(c) measures.
func (t *Table) SelectEq(col string, v core.Value, fn func(Row) bool) error {
	ci, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("rel: %s: no column %q", t.name, col)
	}
	if idx := t.indexes[ci]; idx != nil {
		t.seeks.Add(1)
		var buf [24]byte // fits every non-string value; longer ones spill
		prefix := enc.Value(buf[:0], v)
		idx.AscendPrefix(prefix, func(k, _ []byte) bool {
			posBytes := k[len(prefix):]
			pos, _ := enc.TakeUint64(posBytes)
			r := t.rows[pos]
			return r == nil || fn(r)
		})
		return nil
	}
	t.scans.Add(1)
	for _, r := range t.rows {
		if r == nil {
			continue
		}
		if r[ci].Compare(v) == 0 && !fn(r) {
			return nil
		}
	}
	return nil
}

// Bytes returns the table's approximate footprint including indexes.
func (t *Table) Bytes() int64 {
	var n int64 = 64
	for _, c := range t.cols {
		n += int64(len(c)) + 16
	}
	for _, r := range t.rows {
		n += 8 // row slot
		for _, v := range r {
			n += v.Bytes()
		}
	}
	n += int64(len(t.pk)) * 24
	for _, idx := range t.indexes {
		if idx != nil {
			n += idx.Bytes()
		}
	}
	return n
}

// IndexedJoin looks each key up through the index on col (creating no
// index implicitly; returns an error if absent) — the fast path Sqlg
// uses for single-label hops with small frontiers.
func (t *Table) IndexedJoin(col string, keys []int64, fn func(Row) bool) error {
	if !t.HasIndex(col) {
		return fmt.Errorf("rel: %s: IndexedJoin requires index on %q", t.name, col)
	}
	for _, k := range keys {
		stop := false
		if err := t.SelectEq(col, core.I(k), func(r Row) bool {
			if !fn(r) {
				stop = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// SortedIDs returns all live primary keys in ascending order (used by
// deterministic scans in the engine layer).
func (t *Table) SortedIDs() []int64 {
	ids := make([]int64, 0, len(t.pk))
	for id := range t.pk {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
