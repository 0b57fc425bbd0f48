package datasets_test

// Dataset-acquisition benchmarks: the perf trajectory of the artifact
// cache (cold = generate + GraphSON sizing + encode + store, i.e.
// everything a cold cached acquire pays; warm = open the artifact,
// which already carries the GraphSON size, heap-read or mapped), Stats
// over the CSR snapshot, and an engine BulkLoad — the paths the
// snapshot layer accelerates. TestRecordDatasetBenchmarks renders them
// into BENCH_datasets.json for CI (set BENCH_JSON to the output path),
// and enforces the speedup floors.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engines"
)

// The benchmark dataset: mico is edge-heavy (per-edge RNG + Zipf +
// label formatting on generation, three varints on decode), which is
// exactly the load profile the cache exists for.
const (
	benchDataset = "mico"
	benchScale   = 0.1
)

func benchAcquireCold(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if _, st, err := datasets.AcquireWith(benchDataset, benchScale, datasets.AcquireOptions{CacheDir: dir}); err != nil || st.Hit || !st.Stored {
			b.Fatalf("cold acquire: %v %+v", err, st)
		}
	}
}

// The warm benchmarks come in like-for-like pairs: the same call on the
// same cached artifact, heap-read against memory-mapped, so each
// recorded ratio isolates the open mode. (Repeated mapped opens hit the
// process-shared mapping registry — exactly what a multi-cell run pays
// per acquisition.) AcquireWith materializes the property graph either
// way, so mapping saves it only the file read and the CSR copy;
// AcquireCSR maps the columnar sections and decodes nothing else.

func benchWarm(mmap bool, open func(datasets.AcquireOptions) (datasets.CacheStatus, error)) func(*testing.B) {
	return func(b *testing.B) {
		opts := datasets.AcquireOptions{CacheDir: b.TempDir()}
		if _, _, err := datasets.AcquireWith(benchDataset, benchScale, opts); err != nil {
			b.Fatal(err)
		}
		opts.Mmap = mmap
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st, err := open(opts); err != nil || !st.Hit {
				b.Fatalf("warm acquire (mmap=%v): %v %+v", mmap, err, st)
			}
		}
	}
}

func openGraph(opts datasets.AcquireOptions) (datasets.CacheStatus, error) {
	_, st, err := datasets.AcquireWith(benchDataset, benchScale, opts)
	return st, err
}

func openCSR(opts datasets.AcquireOptions) (datasets.CacheStatus, error) {
	_, st, err := datasets.AcquireCSR(benchDataset, benchScale, opts)
	return st, err
}

func benchStats(b *testing.B) {
	g, _, err := datasets.AcquireWith(benchDataset, benchScale, datasets.AcquireOptions{CacheDir: ""})
	if err != nil {
		b.Fatal(err)
	}
	c := g.Snapshot() // steady state: the one-time CSR build is not the measurand
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row := datasets.StatsCSR(c, 1); row.V == 0 {
			b.Fatal("empty stats")
		}
	}
}

// benchLabelSlice walks every per-label edge slice end to end — the
// O(matches) label-filtered traversal the LabelOff/LabelAdj sections
// buy, replacing the old scan-and-compare over all |E| labels.
func benchLabelSlice(b *testing.B) {
	g, _, err := datasets.AcquireWith(benchDataset, benchScale, datasets.AcquireOptions{CacheDir: ""})
	if err != nil {
		b.Fatal(err)
	}
	c := g.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		for l := range c.Labels {
			for _, e := range c.LabelEdges(l) {
				sum += int64(e)
			}
		}
		if sum == 0 && c.NumEdges() > 0 {
			b.Fatal("label slices empty")
		}
	}
}

func benchBulkLoad(b *testing.B) {
	g, _, err := datasets.AcquireWith(benchDataset, benchScale, datasets.AcquireOptions{CacheDir: ""})
	if err != nil {
		b.Fatal(err)
	}
	g.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := engines.New("neo-1.9")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.BulkLoad(g); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

func BenchmarkDatasetAcquireCold(b *testing.B)          { benchAcquireCold(b) }
func BenchmarkDatasetAcquireWarmGraphHeap(b *testing.B) { benchWarm(false, openGraph)(b) }
func BenchmarkDatasetAcquireWarmGraphMmap(b *testing.B) { benchWarm(true, openGraph)(b) }
func BenchmarkDatasetAcquireWarmCSRHeap(b *testing.B)   { benchWarm(false, openCSR)(b) }
func BenchmarkDatasetAcquireWarmCSRMmap(b *testing.B)   { benchWarm(true, openCSR)(b) }
func BenchmarkDatasetStats(b *testing.B)                { benchStats(b) }
func BenchmarkDatasetLabelSlice(b *testing.B)           { benchLabelSlice(b) }
func BenchmarkDatasetBulkLoad(b *testing.B)             { benchBulkLoad(b) }

// benchRecord is one benchmark's entry in BENCH_datasets.json.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// TestRecordDatasetBenchmarks runs the dataset benchmarks through
// testing.Benchmark and writes their results — plus the cold/warm and
// heap/mapped speedups — to the file named by BENCH_JSON (skipped when
// unset, so ordinary test runs stay fast). The floors are asserted
// here — warm ≥5× over cold, the mapped graph open never slower than
// the heap one (≥0.9×, the reason the harness always maps), the mapped
// CSR open ≥2× — so CI records the trajectory and enforces the
// contract in one step.
func TestRecordDatasetBenchmarks(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("BENCH_JSON not set; skipping benchmark recording")
	}
	// Read the committed floor before anything is written: CI points
	// BENCH_JSON at the committed file itself.
	committed, haveFloor := committedWarmSpeedup(t)
	run := func(name string, fn func(*testing.B)) benchRecord {
		r := testing.Benchmark(fn)
		t.Logf("%s: %v", name, r)
		return benchRecord{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}
	cold := run("acquire/cold", benchAcquireCold)
	warm := run("acquire/warm-graph-heap", benchWarm(false, openGraph))
	warmMmap := run("acquire/warm-graph-mmap", benchWarm(true, openGraph))
	csrHeap := run("acquire/warm-csr-heap", benchWarm(false, openCSR))
	csrMmap := run("acquire/warm-csr-mmap", benchWarm(true, openCSR))
	stats := run("stats", benchStats)
	labelSlice := run("csr/label-slice", benchLabelSlice)
	load := run("bulkload/neo-1.9", benchBulkLoad)

	speedup := cold.NsPerOp / warm.NsPerOp
	graphMmapSpeedup := warm.NsPerOp / warmMmap.NsPerOp
	csrMmapSpeedup := csrHeap.NsPerOp / csrMmap.NsPerOp
	doc := struct {
		Dataset          string        `json:"dataset"`
		Scale            float64       `json:"scale"`
		GeneratorVersion int           `json:"generator_version"`
		CPUs             int           `json:"cpus"`
		Benchmarks       []benchRecord `json:"benchmarks"`
		WarmSpeedup      float64       `json:"warm_speedup"`
		GraphMmapSpeedup float64       `json:"graph_mmap_speedup"`
		CSRMmapSpeedup   float64       `json:"csr_mmap_speedup"`
	}{
		Dataset:          benchDataset,
		Scale:            benchScale,
		GeneratorVersion: datasets.GeneratorVersion,
		CPUs:             runtime.NumCPU(),
		Benchmarks:       []benchRecord{cold, warm, warmMmap, csrHeap, csrMmap, stats, labelSlice, load},
		WarmSpeedup:      speedup,
		GraphMmapSpeedup: graphMmapSpeedup,
		CSRMmapSpeedup:   csrMmapSpeedup,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (warm %.1fx, mapped graph %.2fx, mapped CSR %.1fx on %d CPUs)",
		out, speedup, graphMmapSpeedup, csrMmapSpeedup, runtime.NumCPU())
	if speedup < 5 {
		t.Errorf("warm dataset acquisition is only %.1fx faster than cold, want >= 5x", speedup)
	}
	if graphMmapSpeedup < 0.9 {
		t.Errorf("mapped warm graph open runs at %.2fx of the heap open, want >= 0.9x: the harness always maps on the strength of it never being slower", graphMmapSpeedup)
	}
	if csrMmapSpeedup < 2 {
		t.Errorf("mapped warm CSR open is only %.1fx faster than the heap decode, want >= 2x", csrMmapSpeedup)
	}

	// The committed trajectory is the second floor: a regression that
	// halves a recorded speedup fails even while it clears the absolute
	// bar. The factor-of-two slack absorbs machine-to-machine variance;
	// the committed file ratchets the rest.
	if haveFloor && speedup < committed/2 {
		t.Errorf("warm speedup %.1fx is less than half the committed floor %.1fx (BENCH_datasets.json); investigate or re-baseline", speedup, committed)
	}
}

// committedWarmSpeedup reads the recorded warm speedup from the repo's
// committed BENCH_datasets.json. The comparison only holds between
// identical workloads, so a differing dataset/scale/generator (or an
// absent field) skips it.
func committedWarmSpeedup(t *testing.T) (float64, bool) {
	raw, err := os.ReadFile("../../BENCH_datasets.json")
	if err != nil {
		t.Logf("no committed BENCH_datasets.json floor: %v", err)
		return 0, false
	}
	var doc struct {
		Dataset          string  `json:"dataset"`
		Scale            float64 `json:"scale"`
		GeneratorVersion int     `json:"generator_version"`
		WarmSpeedup      float64 `json:"warm_speedup"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("committed BENCH_datasets.json is unreadable: %v", err)
	}
	if doc.Dataset != benchDataset || doc.Scale != benchScale || doc.GeneratorVersion != datasets.GeneratorVersion {
		t.Logf("committed floor is for %s@%g gen=%d, current workload is %s@%g gen=%d; skipping comparison",
			doc.Dataset, doc.Scale, doc.GeneratorVersion, benchDataset, benchScale, datasets.GeneratorVersion)
		return 0, false
	}
	return doc.WarmSpeedup, doc.WarmSpeedup > 0
}
