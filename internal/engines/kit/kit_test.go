package kit

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestTokens(t *testing.T) {
	var d Tokens
	if _, ok := d.Lookup("a"); ok || d.Len() != 0 || d.Bytes() != 0 {
		t.Fatal("zero Tokens is not empty")
	}
	// Ids are assigned in first-encounter order and never change.
	for i, name := range []string{"b", "a", "b", "longer", "a"} {
		want := map[string]uint32{"b": 0, "a": 1, "longer": 2}[name]
		if got := d.Intern(name); got != want {
			t.Fatalf("Intern #%d (%q) = %d, want %d", i, name, got, want)
		}
	}
	if d.Len() != 3 || d.Name(0) != "b" || d.Name(1) != "a" || d.Name(2) != "longer" {
		t.Fatalf("names = %q %q %q (len %d)", d.Name(0), d.Name(1), d.Name(2), d.Len())
	}
	if id, ok := d.Lookup("longer"); !ok || id != 2 {
		t.Fatalf("Lookup(longer) = %d %v", id, ok)
	}
	if _, ok := d.Lookup("missing"); ok || d.Len() != 3 {
		t.Fatal("Lookup assigned a token")
	}
	if want := int64(1+24) + (1 + 24) + (6 + 24); d.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", d.Bytes(), want)
	}
	// Reserve on a populated dictionary must not disturb it.
	d.Reserve(100)
	if id, ok := d.Lookup("a"); !ok || id != 1 || d.Len() != 3 {
		t.Fatal("Reserve reset a populated dictionary")
	}

	var r Tokens
	r.Reserve(8)
	r.Reserve(0)
	if r.Intern("x") != 0 || r.Intern("y") != 1 || r.Len() != 2 {
		t.Fatal("reserved dictionary does not intern from 0")
	}
}

// vertexProps is a toy vertex store for driving PropIndex.Build.
type vertexProps map[core.ID]core.Value

func (m vertexProps) vertices() core.Iter[core.ID] {
	ids := make([]core.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return core.SliceIter(ids)
}

func (m vertexProps) prop(id core.ID, _ string) (core.Value, bool) {
	v, ok := m[id]
	return v, ok
}

func TestPropIndex(t *testing.T) {
	var x PropIndex
	if x.Has("k") || x.Bytes() != 0 || len(x.Names()) != 0 {
		t.Fatal("zero PropIndex is not empty")
	}
	if _, ok := x.Lookup("k", core.I(1)); ok {
		t.Fatal("Lookup reports an index that was never built")
	}
	// Add and Remove on a name without an index are no-ops.
	x.Add("k", core.I(1), 7)
	x.Remove("k", core.I(1), 7)
	if x.Has("k") {
		t.Fatal("Add created an index")
	}

	store := vertexProps{9: core.S("red"), 3: core.S("red"), 5: core.S("blue"), 1: core.S("red")}
	if !x.Build("k", store.vertices, store.prop) {
		t.Fatal("first Build reported a no-op")
	}
	if ids, ok := x.Lookup("k", core.S("red")); !ok || !reflect.DeepEqual(ids, []core.ID{1, 3, 9}) {
		t.Fatalf("Lookup(red) = %v %v, want ascending [1 3 9]", ids, ok)
	}
	if ids, ok := x.Lookup("k", core.S("green")); !ok || len(ids) != 0 {
		t.Fatalf("Lookup(green) = %v %v, want empty hit", ids, ok)
	}
	// 48 per index, each distinct value once, 16 per member.
	want := int64(48) + core.S("red").Bytes() + 3*16 + core.S("blue").Bytes() + 1*16
	if x.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", x.Bytes(), want)
	}

	// A second Build is a no-op: it neither rescans nor forgets updates.
	x.Add("k", core.S("blue"), 2)
	if x.Build("k", func() core.Iter[core.ID] { t.Fatal("rebuild scanned"); return nil }, store.prop) {
		t.Fatal("second Build reported a build")
	}
	if ids, _ := x.Lookup("k", core.S("blue")); !reflect.DeepEqual(ids, []core.ID{2, 5}) {
		t.Fatalf("Lookup(blue) = %v, want [2 5]", ids)
	}

	// Removing the last member prunes the value entry, so its bytes go.
	x.Remove("k", core.S("blue"), 2)
	x.Remove("k", core.S("blue"), 5)
	x.Remove("k", core.S("blue"), 5) // absent member: no-op
	if want -= core.S("blue").Bytes() + 16; x.Bytes() != want {
		t.Fatalf("Bytes after pruning = %d, want %d", x.Bytes(), want)
	}

	x.Build("other", store.vertices, store.prop)
	if !reflect.DeepEqual(x.Names(), []string{"k", "other"}) {
		t.Fatalf("Names = %v, want build order", x.Names())
	}
}

func TestRemoveID(t *testing.T) {
	s := []core.ID{4, 7, 9, 7}
	s = RemoveID(s, 7) // first occurrence only, order kept
	if !reflect.DeepEqual(s, []core.ID{4, 9, 7}) {
		t.Fatalf("RemoveID(7) = %v, want [4 9 7]", s)
	}
	if s = RemoveID(s, 5); !reflect.DeepEqual(s, []core.ID{4, 9, 7}) {
		t.Fatalf("RemoveID(absent) = %v, want it unchanged", s)
	}
	for _, id := range []core.ID{7, 4, 9} {
		s = RemoveID(s, id)
	}
	if len(s) != 0 {
		t.Fatalf("after removing every id: %v", s)
	}
}
