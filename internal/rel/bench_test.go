package rel

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

func benchTable(b *testing.B, n int, indexed bool) *Table {
	b.Helper()
	db := NewDB()
	t, err := db.CreateTable("t", "id", "src", "grp")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		t.Insert(Row{core.I(int64(i)), core.I(int64(i % 1000)), core.I(int64(i % 50))})
	}
	if indexed {
		t.CreateIndex("src")
	}
	return t
}

// BenchmarkSelectEq contrasts the planner's scan vs index-seek choice —
// the mechanism behind Figure 4(c)'s up-to-600× Sqlg speed-up.
func BenchmarkSelectEq(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		b.Run(fmt.Sprintf("indexed=%v", indexed), func(b *testing.B) {
			t := benchTable(b, 100_000, indexed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				t.SelectEq("src", core.I(int64(i%1000)), func(Row) bool { n++; return true })
			}
		})
	}
}

// BenchmarkSelectEqAt probes 133 one-row tables, each through its src
// index and each with a miss: the probe pattern of an unfiltered Sqlg
// hop on a label-rich graph, where most label tables hold no edge of
// the vertex. One op is one probe.
func BenchmarkSelectEqAt(b *testing.B) {
	db := NewDB()
	tabs := make([]*Table, 133)
	for i := range tabs {
		t, err := db.CreateTable(fmt.Sprintf("E_%d", i), "id", "src", "dst")
		if err != nil {
			b.Fatal(err)
		}
		t.Insert(Row{core.I(int64(i)), core.I(int64(2 * i)), core.I(int64(2*i + 1))})
		t.CreateIndex("src")
		tabs[i] = t
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		tabs[i%len(tabs)].SelectEqAt(1, core.I(int64(2*i+1)), func(Row) bool { n++; return true })
	}
	if n != 0 {
		b.Fatalf("%d hits, want only misses", n)
	}
}

// BenchmarkIndexedJoin measures per-key index lookups over a small
// frontier — the join behind Sqlg's fast single-label hops.
func BenchmarkIndexedJoin(b *testing.B) {
	t := benchTable(b, 100_000, true)
	var keyList []int64
	for i := int64(0); i < 10; i++ {
		keyList = append(keyList, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.IndexedJoin("src", keyList, func(Row) bool { return true })
	}
}

// BenchmarkInsert measures the tuple-insert path (Sqlg's fast Q2).
func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	t, _ := db.CreateTable("t", "id", "v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(Row{core.I(int64(i)), core.S("x")})
	}
}

// BenchmarkAlterAddColumn measures the table rewrite behind Sqlg's slow
// "new property name" CUD path.
func BenchmarkAlterAddColumn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := benchTable(b, 10_000, false)
		b.StartTimer()
		if err := t.AlterAddColumn(fmt.Sprintf("c%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}
