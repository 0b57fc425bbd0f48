package sqlg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engines/enginetest"
	"repro/internal/race"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New() })
}

func TestConcurrencyConformance(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New() })
}

func TestOneJoinTablePerLabel(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	e.AddEdge(a, b, "knows", nil)
	e.AddEdge(a, b, "likes", nil)
	e.AddEdge(b, a, "knows", nil)
	tables := e.db.Tables()
	want := map[string]bool{"V": true, "E_knows": true, "E_likes": true}
	if len(tables) != 3 {
		t.Fatalf("tables = %v", tables)
	}
	for _, name := range tables {
		if !want[name] {
			t.Fatalf("unexpected table %q", name)
		}
	}
	if e.db.Table("E_knows").Len() != 2 || e.db.Table("E_likes").Len() != 1 {
		t.Fatal("edge rows in wrong tables")
	}
}

func TestEndpointColumnsAreIndexed(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	e.AddEdge(a, b, "l", nil)
	t1 := e.db.Table("E_l")
	if !t1.HasIndex("src") || !t1.HasIndex("dst") {
		t.Fatal("foreign-key indexes missing")
	}
	// A hop must be an index seek, not a scan.
	scansBefore, seeksBefore := t1.Stats()
	core.Drain(e.Neighbors(a, core.DirOut, "l"))
	scansAfter, seeksAfter := t1.Stats()
	if scansAfter != scansBefore {
		t.Fatalf("labelled hop performed a scan")
	}
	if seeksAfter != seeksBefore+1 {
		t.Fatalf("labelled hop seeks = %d, want %d", seeksAfter, seeksBefore+1)
	}
}

func TestUnfilteredHopTouchesEveryEdgeTable(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	for _, l := range []string{"l1", "l2", "l3", "l4"} {
		e.AddEdge(a, b, l, nil)
	}
	var before []int
	for _, tab := range e.etabs {
		_, seeks := tab.Stats()
		before = append(before, seeks)
	}
	core.Drain(e.Neighbors(a, core.DirOut))
	for i, tab := range e.etabs {
		if _, seeks := tab.Stats(); seeks != before[i]+1 {
			t.Fatalf("table %d not consulted by unfiltered hop", i)
		}
	}
}

// TestDegreeSeeksEveryEdgeTable: Degree counts through the joins of an
// unfiltered hop — one seek per edge table for DirOut and for DirIn,
// two for DirBoth — and scans nothing.
func TestDegreeSeeksEveryEdgeTable(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	for _, l := range []string{"l1", "l2", "l3", "l4"} {
		e.AddEdge(a, b, l, nil)
	}
	e.AddEdge(b, a, "l2", nil)
	e.AddEdge(a, a, "l3", nil)
	for _, c := range []struct {
		d          core.Direction
		seeks, deg int
	}{{core.DirOut, 1, 5}, {core.DirIn, 1, 2}, {core.DirBoth, 2, 6}} {
		var scans, seeks []int
		for _, tab := range e.etabs {
			sc, sk := tab.Stats()
			scans, seeks = append(scans, sc), append(seeks, sk)
		}
		if deg, err := e.Degree(a, c.d); err != nil || deg != int64(c.deg) {
			t.Fatalf("Degree(a, %v) = %d, %v, want %d", c.d, deg, err, c.deg)
		}
		for i, tab := range e.etabs {
			if sc, sk := tab.Stats(); sc != scans[i] || sk != seeks[i]+c.seeks {
				t.Fatalf("Degree(a, %v) on table %d: %d scans, %d seeks, want 0 and %d", c.d, i, sc-scans[i], sk-seeks[i], c.seeks)
			}
		}
	}
}

func TestNewPropertyNameIsAlterTable(t *testing.T) {
	e := New()
	defer e.Close()
	v, _ := e.AddVertex(core.Props{"known": core.I(1)})
	if e.vtab.HasColumn("fresh") {
		t.Fatal("column exists prematurely")
	}
	if err := e.SetVertexProp(v, "fresh", core.S("x")); err != nil {
		t.Fatal(err)
	}
	if !e.vtab.HasColumn("fresh") {
		t.Fatal("ALTER TABLE did not happen")
	}
	if got, ok := e.VertexProp(v, "fresh"); !ok || got != core.S("x") {
		t.Fatalf("prop = %v %v", got, ok)
	}
}

func TestAttributeIndexSpeedsSelection(t *testing.T) {
	e := New()
	defer e.Close()
	for i := 0; i < 200; i++ {
		e.AddVertex(core.Props{"grp": core.I(int64(i % 10))})
	}
	scans0, seeks0 := e.vtab.Stats()
	if n := core.Drain(e.VerticesByProp("grp", core.I(3))); n != 20 {
		t.Fatalf("pre-index result = %d", n)
	}
	scans1, _ := e.vtab.Stats()
	if scans1 != scans0+1 {
		t.Fatal("pre-index search should scan")
	}
	if err := e.BuildVertexPropIndex("grp"); err != nil {
		t.Fatal(err)
	}
	if n := core.Drain(e.VerticesByProp("grp", core.I(3))); n != 20 {
		t.Fatalf("post-index result = %d", n)
	}
	scans2, seeks2 := e.vtab.Stats()
	if scans2 != scans1 {
		t.Fatal("post-index search still scanned")
	}
	if seeks2 <= seeks0 {
		t.Fatal("post-index search did not seek")
	}
}

func TestEdgesByLabelIsSingleTableScan(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	for i := 0; i < 5; i++ {
		e.AddEdge(a, b, "hot", nil)
		e.AddEdge(a, b, "cold", nil)
	}
	cold := e.db.Table("E_cold")
	scansBefore, _ := cold.Stats()
	if n := core.Drain(e.EdgesByLabel("hot")); n != 5 {
		t.Fatalf("EdgesByLabel = %d", n)
	}
	if scansAfter, _ := cold.Stats(); scansAfter != scansBefore {
		t.Fatal("label search touched an unrelated table")
	}
}

// TestReadAllocs pins the existence probes, which test the primary key
// without copying the row, and Degree, which counts rows where its seeks
// find them.
func TestReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(core.Props{"name": core.S("a"), "age": core.I(1)})
	b, _ := e.AddVertex(nil)
	eid, _ := e.AddEdge(a, b, "knows", nil)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"HasVertex", func() { e.HasVertex(a) }},
		{"HasEdge", func() { e.HasEdge(eid) }},
		{"Degree", func() { e.Degree(a, core.DirBoth) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	if !e.HasVertex(a) || e.HasVertex(eid) || !e.HasEdge(eid) || e.HasEdge(a) {
		t.Fatal("existence probes wrong")
	}
}
