package engines

import (
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engines/kit"
	"repro/internal/race"
)

// heapCeilingMB bounds each engine's live heap, in MB of 2^20 bytes,
// after BulkLoad of ldbc@0.01 (1,840 vertices, 15,000 edges, the graph
// the repository benchmark's read workload serves), at 1.15× what it
// measured when the B+Tree leaves and LSM runs became byte arenas and
// the bitmaps lost their container maps. The space the engines *model*
// is pinned by TestSpaceUsageGolden; this pins what the simulation
// itself costs, so a layout change that puts per-entry pointers back
// fails here.
var heapCeilingMB = map[string]float64{
	"arango":    5.15,  // measured 4.48
	"blaze":     13.83, // 12.03
	"neo-1.9":   1.94,  // 1.69
	"neo-3.0":   2.19,  // 1.91
	"orient":    1.54,  // 1.34
	"sparksee":  10.94, // 9.51–9.65, with map iteration order
	"sqlg":      5.85,  // 5.09
	"titan-0.5": 3.11,  // 2.71
	"titan-1.0": 3.11,  // 2.71
}

// heapTotalCeilingMB bounds the nine engines together: 41.5 MB measured,
// against 64.6 MB before the arenas.
const heapTotalCeilingMB = 45

// closedCeilingKB bounds, in KB of 2^10 bytes, the live heap a loaded
// engine keeps after Close while something still references it: Close
// releases the data, so what is left is an empty engine.
const closedCeilingKB = 64

// TestLiveHeapPerEngine measures, per engine, the live heap that New
// plus BulkLoad retain: the HeapAlloc delta across two collections,
// with the dataset allocated before the first reading. A clone of the
// loaded engine, which the harness runs every mutating query on, is
// held to the same ceiling. It measures again after Close, with the
// engine still referenced.
func TestLiveHeapPerEngine(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	g, _, err := datasets.AcquireWith("ldbc", 0.01, datasets.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Snapshot() // built once and shared; not an engine's cost
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var total float64
	for _, name := range Names() {
		ceiling, ok := heapCeilingMB[name]
		if !ok {
			t.Errorf("%s: no live-heap ceiling; measure one", name)
			continue
		}
		before := live()
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.BulkLoad(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded := live()
		mb := float64(loaded-before) / (1 << 20)
		total += mb
		c, err := e.(kit.Cloner).Clone()
		if err != nil {
			t.Fatalf("%s: clone: %v", name, err)
		}
		cloneMB := float64(int64(live()-loaded)) / (1 << 20)
		if err := c.Close(); err != nil {
			t.Fatalf("%s: close clone: %v", name, err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		kb := float64(int64(live()-before)) / (1 << 10)
		runtime.KeepAlive(c)
		runtime.KeepAlive(e)
		t.Logf("%-9s %6.2f MB live (ceiling %.2f), clone %6.2f MB, %5.1f KB after Close", name, mb, ceiling, cloneMB, kb)
		if mb > ceiling {
			t.Errorf("%s: %.2f MB live after BulkLoad, ceiling %.2f MB", name, mb, ceiling)
		}
		if cloneMB > ceiling {
			t.Errorf("%s: clone %.2f MB live, ceiling %.2f MB", name, cloneMB, ceiling)
		}
		if kb > closedCeilingKB {
			t.Errorf("%s: %.1f KB live after Close, ceiling %d KB", name, kb, closedCeilingKB)
		}
	}
	t.Logf("all engines %.2f MB", total)
	if total > heapTotalCeilingMB {
		t.Errorf("all engines: %.2f MB live, ceiling %d MB", total, heapTotalCeilingMB)
	}
}

// cloneAllocCeiling bounds the allocations of one Clone of each engine
// loaded with frb-s@0.002 (the graph of the repository benchmark's grid
// workload, whose micro cells run every query on a clone), at about
// 1.15× what it measured. sparksee's Clone made 10,600 before its
// bitmaps were carved from one arena per slice kind (at least four per
// bitmap).
var cloneAllocCeiling = map[string]float64{
	"arango":    42,   // measured 36
	"blaze":     150,  // 130
	"neo-1.9":   28,   // 24
	"neo-3.0":   33,   // 28
	"orient":    787,  // 684
	"sparksee":  92,   // 80
	"sqlg":      2843, // 2,472
	"titan-0.5": 19,   // 16
	"titan-1.0": 21,   // 18
}

// TestCloneAllocs holds each engine's Clone to its allocation ceiling,
// so a substrate copy that goes back to one allocation per element
// fails here.
func TestCloneAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	g, _, err := datasets.AcquireWith("frb-s", 0.002, datasets.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		ceiling, ok := cloneAllocCeiling[name]
		if !ok {
			t.Errorf("%s: no clone allocation ceiling; measure one", name)
			continue
		}
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.BulkLoad(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl := e.(kit.Cloner)
		allocs := testing.AllocsPerRun(21, func() {
			c, err := cl.Clone()
			if err != nil {
				t.Fatalf("%s: clone: %v", name, err)
			}
			c.Close()
		})
		t.Logf("%-9s %6.0f allocations per clone (ceiling %.0f)", name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocations per clone, ceiling %.0f", name, allocs, ceiling)
		}
		e.Close()
	}
}
