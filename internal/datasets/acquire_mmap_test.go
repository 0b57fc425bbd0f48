package datasets

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

// csrEqual compares the traversal-relevant fields of two snapshots.
func csrEqual(t *testing.T, got, want *core.CSR) {
	t.Helper()
	type pair struct {
		name string
		a, b any
	}
	for _, p := range []pair{
		{"Labels", got.Labels, want.Labels},
		{"OutOff", got.OutOff, want.OutOff},
		{"InOff", got.InOff, want.InOff},
		{"UndOff", got.UndOff, want.UndOff},
		{"UndAdj", got.UndAdj, want.UndAdj},
		{"LabelIx", got.LabelIx, want.LabelIx},
		{"LabelOff", got.LabelOff, want.LabelOff},
		{"LabelAdj", got.LabelAdj, want.LabelAdj},
	} {
		if !reflect.DeepEqual(p.a, p.b) {
			t.Fatalf("snapshot %s differs:\n got %v\nwant %v", p.name, p.a, p.b)
		}
	}
}

// TestAcquireMmapMatchesHeap is the zero-copy equivalence contract:
// a mapped open must produce exactly the graph and snapshot a heap
// decode produces, and concurrent mapped opens share one mapping.
func TestAcquireMmapMatchesHeap(t *testing.T) {
	dir := t.TempDir()
	gen, _, err := AcquireWith("frb-s", snapTestScale, AcquireOptions{CacheDir: dir}) // cold: generates+stores
	if err != nil {
		t.Fatal(err)
	}
	heap, stH, err := AcquireWith("frb-s", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !stH.Hit || stH.Mapped {
		t.Fatalf("heap acquire: %+v", stH)
	}
	mm, stM, err := AcquireWith("frb-s", snapTestScale, AcquireOptions{CacheDir: dir, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stM.Hit {
		t.Fatalf("mmap acquire missed: %+v", stM)
	}
	for _, g := range []*core.Graph{heap, mm} {
		if !reflect.DeepEqual(g.VProps, gen.VProps) || !reflect.DeepEqual(g.EdgeL, gen.EdgeL) {
			t.Fatal("decoded graph differs from generated one")
		}
	}
	csrEqual(t, mm.Snapshot(), gen.Snapshot())
	csrEqual(t, heap.Snapshot(), gen.Snapshot())

	// Concurrent mapped opens of the same artifact: one shared mapping,
	// all value-identical.
	const readers = 8
	graphs := make([]*core.Graph, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i], _, errs[i] = AcquireWith("frb-s", snapTestScale, AcquireOptions{CacheDir: dir, Mmap: true})
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(graphs[i].EdgeL, gen.EdgeL) {
			t.Fatalf("mapped reader %d got a different graph", i)
		}
	}
}

// TestAcquireMmapHealsCorruptArtifact: a mapped open of a corrupt
// artifact must fall back to regeneration, heal the file, and — the
// subtle part — drop the stale shared mapping so the next mapped open
// maps the healed bytes, not the old ones.
func TestAcquireMmapHealsCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	gen, st1, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st1.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01 // flip a byte inside the last section
	if err := os.WriteFile(st1.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	g, st, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hit || st.Err == nil || !st.Stored {
		t.Fatalf("corrupt mapped artifact not reported+healed: %+v", st)
	}
	if !reflect.DeepEqual(g.EdgeL, gen.EdgeL) {
		t.Fatal("regenerated graph differs")
	}
	g2, st2, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Hit {
		t.Fatalf("healed artifact does not hit under mmap: %+v", st2)
	}
	if !reflect.DeepEqual(g2.EdgeL, gen.EdgeL) || !reflect.DeepEqual(g2.VProps, gen.VProps) {
		t.Fatal("mapped graph after healing differs")
	}
}

// TestAcquireCSR: the snapshot-only acquire must serve a CSR identical
// to the full graph's snapshot — cold (generate+store, build) and warm
// (decoded straight from the artifact's columnar sections, heap or
// mapped) — without ever diverging.
func TestAcquireCSR(t *testing.T) {
	dir := t.TempDir()
	c1, st1, err := AcquireCSR("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hit || !st1.Stored {
		t.Fatalf("cold CSR acquire: %+v", st1)
	}
	c2, st2, err := AcquireCSR("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Hit || st2.Stored {
		t.Fatalf("warm CSR acquire: %+v", st2)
	}
	c3, st3, err := AcquireCSR("yeast", snapTestScale, AcquireOptions{CacheDir: dir, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Hit {
		t.Fatalf("warm mapped CSR acquire: %+v", st3)
	}
	want := ByName("yeast").Generate(snapTestScale).Snapshot()
	for _, c := range []*core.CSR{c1, c2, c3} {
		csrEqual(t, c, want)
	}
	// Degree accessors agree on a few vertices.
	for v := 0; v < want.NumVertices() && v < 16; v++ {
		if c2.OutDegree(v) != want.OutDegree(v) || c3.Degree(v) != want.Degree(v) {
			t.Fatalf("degree mismatch at vertex %d", v)
		}
	}
	// No cache dir: plain generation, no artifact.
	c4, st4, err := AcquireCSR("yeast", snapTestScale, AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st4.Hit || st4.Stored || st4.Path != "" {
		t.Fatalf("uncached CSR acquire touched the cache: %+v", st4)
	}
	csrEqual(t, c4, want)
	if _, _, err := AcquireCSR("no-such-dataset", 1, AcquireOptions{}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
