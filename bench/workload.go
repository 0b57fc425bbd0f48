package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/serve/hist"
)

// workloadDef is one row of BENCHMARK.json's workloads; why is the
// one-line reason it exists, README.md has the long one.
type workloadDef struct {
	name string
	why  string
	run  func(*env) error
	// singleThreaded workloads run beside the heater (heater.go).
	singleThreaded bool
}

var workloads = []workloadDef{
	{"grid", "the harness grid users run (nine engines on frb-s: micro and indexed cells, interactive and batch, isolation on): the only workload where harness does work", runGrid, true},
	{"read", "one seeded read-only schedule on dense ldbc, same on all nine engines: gremlin and engine read paths, no mutation", runRead, true},
	{"write", "seeded mutation stream on sparse label-rich frb-s: insert/delete/index upkeep; bypasses gremlin, which must not move it", runWrite, true},
	{"load", "cold/warm dataset acquire, GraphSON round trip and bulk load of three datasets: datasets, graphson, mmapfile, bulk paths", runLoad, true},
	{"serve", "closed loop, 2 clients, mixed read/write under core.Guard on neo-1.9, sqlg and durable titan-1.0: contention and the only workload with lsm/wal", runServe, false},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// sizeProfile fixes every input size of the benchmark. The full
// profile is the committed benchmark, sized so that a round of each
// workload takes a second or two on the 2-core reference box and a
// 20-second timed section holds a dozen and more; smoke exists for
// bench_test.go.
type sizeProfile struct {
	setups int // times set-up is repeated for setup_s

	gridDatasets []string
	gridScale    float64
	gridBatch    int

	readScale   float64
	writeScale  float64
	writeCycles int // cycles of the twelve mutating queries per stream
	loadScale   float64
	loadSets    []string
	serveScale  float64
	serveOps    map[string]int // operations each of serve's clients sends per slice, by engine
	kernelKeys  int            // cap on keys a substrate kernel is driven with
}

var sizes = map[string]sizeProfile{
	"full": {
		setups:       3,
		gridDatasets: []string{"frb-s"}, gridScale: 0.002, gridBatch: 3,
		readScale:  0.01,
		writeScale: 0.03, writeCycles: 1000,
		loadScale: 0.015, loadSets: []string{"frb-s", "ldbc", "mico"},
		serveScale: 0.01, serveOps: map[string]int{"neo-1.9": 12000, "sqlg": 6000, durableEngine: 6000},
		kernelKeys: 30_000,
	},
	"smoke": {
		setups:       1,
		gridDatasets: []string{"yeast", "frb-s"}, gridScale: 0.001, gridBatch: 2,
		readScale:  0.001,
		writeScale: 0.005, writeCycles: 20,
		loadScale: 0.001, loadSets: []string{"frb-s", "ldbc", "mico"},
		serveScale: 0.001, serveOps: map[string]int{"neo-1.9": 100, "sqlg": 100, durableEngine: 100},
		kernelKeys: 2_000,
	},
}

// env is the state of one run.
type env struct {
	seed   int64
	budget time.Duration
	size   sizeProfile
	dir    string    // scratch directory, removed when the run ends
	rep    *report   // metrics and correctness problems
	tr     *tracer   // nil on the untraced run
	clk    *clock    // what every timed span is read from
	setups []float64 // wall seconds of every set-up, set by timeSetup
}

// fits reports whether another round should start: a timed section
// stops at the round boundary nearest its budget.
func fits(elapsed, lastPass, budget time.Duration) bool {
	return elapsed+lastPass/2 <= budget
}

// timeSetup runs setup size.setups times, keeps the fastest for
// setup_s (see fastest) and returns the last product; earlier ones go
// to discard. A set-up is one long call the clock cannot look into, at
// the start of the process, when the clock has seen little of the box:
// it is timed on the wall, and reportSetup converts it by the average
// speed of the whole run.
func timeSetup[T any](env *env, setup func() (T, error), discard func(T)) (T, error) {
	var last T
	for i := 0; i < env.size.setups; i++ {
		if i > 0 {
			// Collect what the previous set-up built, so that the
			// process's peak memory is one set-up's, not several.
			discard(last)
		}
		env.settle()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		env.setups = append(env.setups, time.Since(start).Seconds())
		last = v
	}
	return last, nil
}

// setupS is the fastest set-up on the run's clock at the box's average
// speed so far.
func (env *env) setupS() float64 {
	return slices.Min(env.setups) * env.clk.meanRate()
}

// loaded is one engine holding the workload's dataset.
type loaded struct {
	name string
	raw  core.Engine // the engine itself, for engine-specific counters
	e    core.Engine // raw, or its tracing decorator on the traced run
	res  *core.LoadResult
}

// fresh builds the named engine and bulk-loads g into it.
func (env *env) fresh(name string, g *core.Graph) (*loaded, error) {
	raw, err := engines.New(name)
	if err != nil {
		return nil, err
	}
	return env.load(name, raw, g)
}

func (env *env) load(name string, raw core.Engine, g *core.Graph) (*loaded, error) {
	res, err := raw.BulkLoad(g)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("%s: bulk load: %w", name, err)
	}
	return &loaded{name: name, raw: raw, e: env.traced(name, raw), res: res}, nil
}

// scratch returns a fresh directory under the run's scratch space.
func (env *env) scratch(name string) (string, error) {
	dir := filepath.Join(env.dir, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// dataset is a generated graph with the size of its GraphSON form, the
// base of every space_amp.
type dataset struct {
	g       *core.Graph
	rawJSON int64
}

func acquire(name string, scale float64) (dataset, error) {
	g, _, err := datasets.AcquireWith(name, scale, datasets.AcquireOptions{})
	if err != nil {
		return dataset{}, err
	}
	return dataset{g, datasets.RawJSONSize(g)}, nil
}

// loadedSet is the product of the set-up most workloads share: one
// dataset and the engines holding it.
type loadedSet struct {
	ds      dataset
	engines []*loaded
}

func (s loadedSet) close() {
	for _, l := range s.engines {
		l.raw.Close()
	}
}

// setupLoaded acquires the dataset and loads the named engines, through
// open where it is given instead of engines.New.
func (env *env) setupLoaded(name string, scale float64, names []string, open func(engine string) (core.Engine, error)) (loadedSet, error) {
	return timeSetup(env, func() (loadedSet, error) {
		ds, err := acquire(name, scale)
		if err != nil {
			return loadedSet{}, err
		}
		set := loadedSet{ds: ds}
		for _, en := range names {
			var raw core.Engine
			if open != nil {
				raw, err = open(en)
			} else {
				raw, err = engines.New(en)
			}
			if err == nil {
				var l *loaded
				if l, err = env.load(en, raw, ds.g); err == nil {
					set.engines = append(set.engines, l)
				}
			}
			if err != nil {
				set.close()
				return loadedSet{}, err
			}
		}
		return set, nil
	}, loadedSet.close)
}

// reportSpace records space_amp (untraced) or engines.space_amp.*
// (traced): bytes an engine stores per byte of the dataset's GraphSON,
// taken right after bulk load so it does not depend on how far a timed
// slice got. amps holds one ratio per engine per dataset.
func (env *env) reportSpace(amps map[string][]float64) {
	var all []float64
	for _, en := range engineNames {
		all = append(all, amps[en]...)
		if env.tr != nil {
			env.rep.set("engines.space_amp."+en, geomean(amps[en]), 0)
		}
	}
	if env.tr == nil {
		env.rep.set("space_amp", geomean(all), 0)
	}
}

func (env *env) reportSpaceOf(set loadedSet) {
	amps := map[string][]float64{}
	for _, l := range set.engines {
		amps[l.name] = []float64{float64(l.raw.SpaceUsage().Total) / float64(set.ds.rawJSON)}
	}
	env.reportSpace(amps)
}

// tailQuantile is the highest of p99, p90 and p50 that leaves at least
// ten of n samples beyond it (choosing-metrics guide, section 1). The
// full-size workloads reach p99, or p90 where an operation is a whole
// grid cell or bulk load; p50 is what the smoke sizes support.
func tailQuantile(n int64) (q float64, name string, err error) {
	switch {
	case n >= 1000:
		return 0.99, "p99", nil
	case n >= 100:
		return 0.90, "p90", nil
	case n >= 20:
		return 0.50, "p50", nil
	}
	return 0, "", fmt.Errorf("%d latency samples are too few for a percentile", n)
}

// reportLatency records lat_p50_us and lat_tail_us (untraced) or
// engines.p50_us/p99_us.* (traced). groups holds one histogram per
// engine, of every operation of the run's rounds on the run's clock;
// the end-to-end value is the geometric mean over engines.
func (env *env) reportLatency(groups map[string]*hist.Histogram) error {
	minN := int64(-1)
	for _, h := range groups {
		if n := h.Count(); minN < 0 || n < minN {
			minN = n
		}
	}
	tailQ, tailName, err := tailQuantile(minN)
	if err != nil {
		return err
	}
	env.rep.notef("latency: the tail percentile is %s; fewest samples in a group %d", tailName, minN)
	us := func(h *hist.Histogram, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
	var p50s, tails []float64
	for _, en := range engineNames {
		h := groups[en]
		if env.tr != nil {
			env.rep.set("engines.p50_us."+en, us(h, 0.5), 0)
			env.rep.set("engines.p99_us."+en, us(h, tailQ), 0)
		}
		p50s = append(p50s, us(h, 0.5))
		tails = append(tails, us(h, tailQ))
	}
	if env.tr == nil {
		env.rep.set("lat_p50_us", geomean(p50s), 0)
		env.rep.set("lat_tail_us", geomean(tails), 0)
	}
	return nil
}

// processMetrics records what the Go runtime and the kernel say about
// the whole process.
func (env *env) processMetrics() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if env.tr != nil {
		env.rep.set("go.gc_cpu_share", ms.GCCPUFraction, 0)
		env.rep.set("go.alloc_mb", float64(ms.TotalAlloc)/(1<<20), 0)
		return
	}
	env.rep.set("peak_rss_mb", peakRSSMB(&ms), 0)
}

// peakRSSMB is VmHWM of this process; where /proc is missing it falls
// back to the memory the Go runtime obtained from the system.
func peakRSSMB(ms *runtime.MemStats) float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(ms.Sys) / (1 << 20)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
