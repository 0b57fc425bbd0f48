package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/race"
)

func personTable(t *testing.T) *Table {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("person", "id", "name", "age")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t", "name"); err == nil {
		t.Fatal("table without id column accepted")
	}
	if _, err := db.CreateTable("t", "id", "a", "a"); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := db.CreateTable("t", "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", "id"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if db.Table("t") == nil || db.Table("nope") != nil {
		t.Fatal("Table lookup wrong")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("Tables() = %v", got)
	}
}

func TestInsertGetDelete(t *testing.T) {
	tbl := personTable(t)
	if err := tbl.Insert(Row{core.I(1), core.S("ann"), core.I(30)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{core.I(1), core.S("dup"), core.I(0)}); err == nil {
		t.Fatal("duplicate pk accepted")
	}
	if err := tbl.Insert(Row{core.I(2), core.S("short")}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := tbl.Insert(Row{core.S("x"), core.S("bad"), core.I(0)}); err == nil {
		t.Fatal("non-int pk accepted")
	}
	r, ok := tbl.Get(1)
	if !ok || r[1].Str() != "ann" {
		t.Fatalf("Get = %v %v", r, ok)
	}
	r[1] = core.S("mutated")
	if r2, _ := tbl.Get(1); r2[1].Str() != "ann" {
		t.Fatal("Get returned a shared row")
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(1); ok {
		t.Fatal("deleted row visible")
	}
	if err := tbl.Delete(1); err == nil {
		t.Fatal("double delete accepted")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestUpdateMaintainsIndex(t *testing.T) {
	tbl := personTable(t)
	for i := int64(0); i < 10; i++ {
		tbl.Insert(Row{core.I(i), core.S(fmt.Sprint("p", i%3)), core.I(20 + i)})
	}
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(4, "name", core.S("renamed")); err != nil {
		t.Fatal(err)
	}
	n, _ := countEq(tbl, "name", core.S("renamed"))
	if n != 1 {
		t.Fatalf("indexed count after update = %d", n)
	}
	n, _ = countEq(tbl, "name", core.S("p1"))
	if n != 2 { // ids 1,7 (4 was renamed)
		t.Fatalf("count p1 = %d", n)
	}
	if err := tbl.Update(4, "id", core.I(99)); err == nil {
		t.Fatal("pk update accepted")
	}
	if err := tbl.Update(99, "name", core.S("x")); err == nil {
		t.Fatal("update of missing row accepted")
	}
}

func TestSelectEqPlannerIndexVsScan(t *testing.T) {
	tbl := personTable(t)
	for i := int64(0); i < 100; i++ {
		tbl.Insert(Row{core.I(i), core.S(fmt.Sprint("name", i)), core.I(i % 5)})
	}
	tbl.SelectEq("age", core.I(3), func(Row) bool { return true })
	scans, seeks := tbl.Stats()
	if scans == 0 || seeks != 0 {
		t.Fatalf("expected scan without index: scans=%d seeks=%d", scans, seeks)
	}
	tbl.CreateIndex("age")
	n := 0
	tbl.SelectEq("age", core.I(3), func(Row) bool { n++; return true })
	_, seeks = tbl.Stats()
	if seeks != 1 {
		t.Fatalf("expected index seek: seeks=%d", seeks)
	}
	if n != 20 {
		t.Fatalf("indexed select found %d rows", n)
	}
}

func TestCreateIndexOnExistingData(t *testing.T) {
	tbl := personTable(t)
	for i := int64(0); i < 50; i++ {
		tbl.Insert(Row{core.I(i), core.S("same"), core.I(i)})
	}
	tbl.CreateIndex("name")
	n, _ := countEq(tbl, "name", core.S("same"))
	if n != 50 {
		t.Fatalf("backfilled index count = %d", n)
	}
	if !tbl.HasIndex("name") || tbl.HasIndex("age") {
		t.Fatal("HasIndex wrong")
	}
	if err := tbl.CreateIndex("none"); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal("re-creating index should be a no-op")
	}
}

func TestIndexSkipsDeletedRows(t *testing.T) {
	tbl := personTable(t)
	tbl.CreateIndex("name")
	tbl.Insert(Row{core.I(1), core.S("x"), core.I(1)})
	tbl.Insert(Row{core.I(2), core.S("x"), core.I(2)})
	tbl.Delete(1)
	n, _ := countEq(tbl, "name", core.S("x"))
	if n != 1 {
		t.Fatalf("count after delete = %d", n)
	}
}

func TestAlterAddColumn(t *testing.T) {
	tbl := personTable(t)
	tbl.Insert(Row{core.I(1), core.S("a"), core.I(10)})
	if err := tbl.AlterAddColumn("city"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AlterAddColumn("city"); err == nil {
		t.Fatal("duplicate alter accepted")
	}
	r, _ := tbl.Get(1)
	if len(r) != 4 || !r[3].IsNil() {
		t.Fatalf("row after alter = %v", r)
	}
	if err := tbl.Update(1, "city", core.S("rome")); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Value(1, "city"); v.Str() != "rome" {
		t.Fatalf("city = %v", v)
	}
	// New inserts must carry the new arity.
	if err := tbl.Insert(Row{core.I(2), core.S("b"), core.I(20), core.S("milan")}); err != nil {
		t.Fatal(err)
	}
}

// countEq counts the rows of tbl whose col equals v.
func countEq(tbl *Table, col string, v core.Value) (int, error) {
	n := 0
	err := tbl.SelectEq(col, v, func(Row) bool { n++; return true })
	return n, err
}

func TestIndexedJoin(t *testing.T) {
	db := NewDB()
	edges, _ := db.CreateTable("knows", "id", "src", "dst")
	for i := int64(0); i < 100; i++ {
		edges.Insert(Row{core.I(i), core.I(i % 10), core.I((i + 1) % 10)})
	}
	if err := edges.IndexedJoin("src", []int64{3, 7}, func(Row) bool { return true }); err == nil {
		t.Fatal("IndexedJoin without index accepted")
	}
	edges.CreateIndex("src")
	hits := 0
	if err := edges.IndexedJoin("src", []int64{3, 7}, func(Row) bool { hits++; return true }); err != nil {
		t.Fatal(err)
	}
	if hits != 20 {
		t.Fatalf("indexed join matched %d", hits)
	}
}

func TestSortedIDs(t *testing.T) {
	tbl := personTable(t)
	for _, id := range []int64{5, 1, 9, 3} {
		tbl.Insert(Row{core.I(id), core.S("x"), core.I(0)})
	}
	tbl.Delete(9)
	got := tbl.SortedIDs()
	if fmt.Sprint(got) != "[1 3 5]" {
		t.Fatalf("SortedIDs = %v", got)
	}
}

func TestBytesGrowsWithRowsAndIndexes(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("t", "id", "v")
	empty := db.Bytes()
	for i := int64(0); i < 100; i++ {
		tbl.Insert(Row{core.I(i), core.S("some value here")})
	}
	withRows := db.Bytes()
	tbl.CreateIndex("v")
	withIndex := db.Bytes()
	if !(empty < withRows && withRows < withIndex) {
		t.Fatalf("bytes not monotone: %d %d %d", empty, withRows, withIndex)
	}
}

// TestQuickSelectEqMatchesScan: with or without an index, SelectEq
// returns exactly the rows a predicate scan returns.
func TestQuickSelectEqMatchesScan(t *testing.T) {
	f := func(seed int64, useIndex bool) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		tbl, _ := db.CreateTable("t", "id", "grp")
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			tbl.Insert(Row{core.I(int64(i)), core.I(int64(rng.Intn(7)))})
		}
		// Random deletes.
		for i := 0; i < n/4; i++ {
			tbl.Delete(int64(rng.Intn(n)))
		}
		if useIndex {
			tbl.CreateIndex("grp")
		}
		for g := int64(0); g < 7; g++ {
			want := 0
			tbl.Scan(func(r Row) bool {
				if r[1].Int() == g {
					want++
				}
				return true
			})
			got, err := countEq(tbl, "grp", core.I(g))
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTableReserve(t *testing.T) {
	db := NewDB()
	tb, err := db.CreateTable("t", "id", "x")
	if err != nil {
		t.Fatal(err)
	}
	tb.Reserve(64)
	for i := 0; i < 64; i++ {
		if err := tb.Insert(Row{core.I(int64(i)), core.S("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != 64 {
		t.Fatalf("Len = %d, want 64", tb.Len())
	}
	// Reserving a non-empty table must keep its rows and pk intact.
	tb.Reserve(128)
	if r, ok := tb.Get(17); !ok || r[1].Str() != "v" {
		t.Fatal("Reserve disturbed existing rows")
	}
	tb.Reserve(0)
	tb.Reserve(-1)
}

// TestColumnsReadOnly: the column list Columns returns shares the
// table's, yet neither an append to it nor a later AlterAddColumn
// changes what the other side sees.
func TestColumnsReadOnly(t *testing.T) {
	tbl := personTable(t)
	// Growing the list once leaves the table's array spare capacity.
	if err := tbl.AlterAddColumn("email"); err != nil {
		t.Fatal(err)
	}
	cols := tbl.Columns()
	want := strings.Join(cols, ",")
	ext := append(cols, "extra")
	if err := tbl.AlterAddColumn("city"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cols, ","); got != want {
		t.Fatalf("AlterAddColumn changed an earlier Columns slice: %s, want %s", got, want)
	}
	if got := strings.Join(ext, ","); got != want+",extra" {
		t.Fatalf("an append to Columns shares the table's array: %s, want %s,extra", got, want)
	}
	if got := strings.Join(tbl.Columns(), ","); got != want+",city" {
		t.Fatalf("columns after AlterAddColumn = %s, want %s,city", got, want)
	}
}

// TestReadAllocs pins allocation-free index reads: SelectEq and
// SelectEqAt encode their index prefix on the stack and Has tests the
// primary key without copying the row.
func TestReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tbl := personTable(t)
	for i := 0; i < 2000; i++ {
		tbl.Insert(Row{core.I(int64(i)), core.S(fmt.Sprint("p", i%50)), core.I(int64(i % 90))})
	}
	if err := tbl.CreateIndex("age"); err != nil {
		t.Fatal(err)
	}
	age := core.I(42)
	n := 0
	visit := func(Row) bool { n++; return true }
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"SelectEq", func() { tbl.SelectEq("age", age, visit) }},
		{"SelectEqAt", func() { tbl.SelectEqAt(2, age, visit) }},
		{"Has", func() { tbl.Has(1234) }},
		{"Columns", func() { tbl.Columns() }},
	} {
		if a := testing.AllocsPerRun(100, c.fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
	if n == 0 || !tbl.Has(1234) || tbl.Has(99999) {
		t.Fatalf("SelectEq visited %d rows; Has(1234) = %v, Has(99999) = %v", n, tbl.Has(1234), tbl.Has(99999))
	}
}
