// Package harness materializes the paper's evaluation methodology
// (Section 5): it loads each dataset into each engine through the
// engine's bulk path, draws query parameters once against the dataset
// (so every engine is asked about the same logical objects), executes
// every micro query in interactive and batch mode under a timeout,
// runs the complex workload on ldbc, and renders each of the paper's
// tables and figures from the collected measurements.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/workload"
)

// Config parameterizes an evaluation run: Grid is what the run
// measures, Exec how this process executes it.
type Config struct {
	Grid
	Exec
}

// Grid is a run's identity: every setting that changes what the run
// measures, and nothing else. The checkpoint Fingerprint and the JSON
// export carry it whole, so a field added here guards resume and
// restores on import without further wiring. Field order and keys are
// those of the checkpoint header.
type Grid struct {
	// Engines to evaluate; defaults to all registered configurations.
	Engines []string `json:"engines"`
	// Datasets to use; defaults to the Freebase ladder plus ldbc, the
	// datasets Section 6 focuses on.
	Datasets []string `json:"datasets"`
	// Scale is the dataset scale factor (1.0 = paper sizes).
	Scale float64 `json:"scale"`
	// Seed fixes all random choices.
	Seed int64 `json:"seed"`
	// BatchSize is the number of executions in batch mode (paper: 10).
	BatchSize int `json:"batch_size"`
	// Timeout per query execution — the paper's 2-hour limit, scaled to
	// the run. A batch cell's budget is Timeout × BatchSize.
	Timeout time.Duration `json:"timeout_ns"`
	// FrozenClock records every duration as zero, making exports fully
	// deterministic — the knob behind byte-identical test comparisons.
	// A zero-duration run must not replay real-clock cells or vice versa.
	FrozenClock bool `json:"frozen_clock"`
	// CellWorkers bounds the number of batch iterations executed
	// concurrently inside one cell. Only non-mutating queries fan out
	// (engines are single-writer; their read surfaces are required to be
	// race-free, see core.Engine), engines with result-affecting read
	// state veto fan-out via core.ConcurrentReader, and the iterations
	// fold in index order, so counts and failures are identical for any
	// value. A batch's Elapsed is not: above one it is the parallel wall
	// time of the iterations, not the paper's consecutive executions.
	// Zero, one or negative means sequential.
	CellWorkers int `json:"cell_workers"`
}

// Exec holds the knobs that belong to the process executing cells:
// they change its wall-clock time and where its bytes come from, never
// what a run measures, so a run may resume under different ones.
type Exec struct {
	// Workers is the number of goroutines the grid's pending cells —
	// (engine, dataset) micro cells plus indexed and complex cells —
	// fan out across; it is the only executor count a run has. Zero or
	// negative means runtime.NumCPU(). Results are assembled in the same
	// order regardless of the worker count.
	Workers int
	// CheckpointPath, when non-empty, streams every completed grid cell
	// to this JSONL file as workers finish: header line with the config
	// Fingerprint, then one record per cell, fsynced. A crash loses at
	// most the cell in flight.
	CheckpointPath string
	// Resume replays a compatible checkpoint from CheckpointPath before
	// executing: already-completed cells are restored and only the
	// missing ones run. The final Results are byte-identical to an
	// uninterrupted run. A checkpoint written under a different
	// Fingerprint is rejected; a missing file starts a fresh run.
	Resume bool
	// DatasetCacheDir, when non-empty, reuses binary dataset snapshots
	// from this directory instead of regenerating each graph, and
	// populates it on misses (see internal/datasets, AcquireWith): a
	// warm run skips the V+E dataset generation entirely. Warm artifacts
	// are opened memory-mapped (heap-read where the platform cannot
	// map). Cached graphs are byte-identical to generated ones.
	DatasetCacheDir string
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Grid: Grid{
			Engines:   engines.Names(),
			Datasets:  []string{"frb-s", "frb-o", "frb-m", "frb-l"},
			Scale:     0.002,
			Timeout:   2 * time.Second,
			BatchSize: 10,
			Seed:      1,
		},
		Exec: Exec{Workers: runtime.NumCPU()},
	}
}

// Mode distinguishes the two execution modes of Figure 1(c).
type Mode string

// Execution modes.
const (
	ModeInteractive Mode = "interactive"
	ModeBatch       Mode = "batch"
)

// Measurement is one (engine, dataset, query, mode) cell.
type Measurement struct {
	Engine   string
	Dataset  string
	Query    string // "Q2".."Q35", complex names, or "Q32(d=3)" style
	Mode     Mode
	Elapsed  time.Duration
	TimedOut bool
	Failed   bool   // non-timeout error (e.g. out of memory)
	Error    string // error text when Failed or TimedOut
	Count    int64  // result count (validation across engines)
}

// LoadMeasurement is one (engine, dataset) load (Q1) with its space
// occupancy (Figures 1 and 3(a)). A load that did not finish — engine
// construction or bulk-load error — is recorded with Failed set, the
// paper's DNF, and leaves every dependent cell DNF too.
type LoadMeasurement struct {
	Engine  string
	Dataset string
	Elapsed time.Duration
	Space   core.SpaceReport
	RawJSON int64 // size of the GraphSON representation ("Raw Data")
	Failed  bool
	Error   string
}

// Results accumulates a full evaluation.
type Results struct {
	Config  Config
	Loads   []LoadMeasurement
	Micro   []Measurement
	Indexed []Measurement // Q11 with an attribute index (Figure 4(c))
	Complex []Measurement // Figure 2 workload on ldbc
	Stats   map[string]datasets.Table3Row
}

// Runner executes the evaluation.
type Runner struct {
	cfg Config

	mu     sync.Mutex // guards graphs and Progress writes
	graphs map[string]*datasetCache

	// now and since default to the real clock; Config.FrozenClock and
	// tests substitute a frozen clock so two runs produce byte-identical
	// exports.
	now   func() time.Time
	since func(time.Time) time.Duration
}

// datasetCache acquires a dataset graph, its GraphSON raw size (the
// "Raw Data" bar of Figure 1) and its parameter table exactly once;
// after Do the fields are read-only and safe to share across worker
// goroutines.
type datasetCache struct {
	once    sync.Once
	g       *core.Graph
	rawJSON int64
	pg      *ParamGen
}

// NewRunner validates the config and prepares a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if len(cfg.Engines) == 0 {
		cfg.Engines = engines.Names()
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = DefaultConfig().Datasets
	}
	if cfg.Scale == 0 {
		cfg.Scale = DefaultConfig().Scale
	} else if err := datasets.CheckScale(cfg.Scale); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultConfig().Timeout
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 10
	}
	for _, e := range cfg.Engines {
		if engines.Constructor(e) == nil {
			return nil, fmt.Errorf("harness: unknown engine %q", e)
		}
	}
	for _, d := range cfg.Datasets {
		if datasets.ByName(d) == nil {
			return nil, fmt.Errorf("harness: unknown dataset %q", d)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("harness: Resume requires CheckpointPath")
	}
	if cfg.CellWorkers < 1 {
		cfg.CellWorkers = 1
	}
	r := &Runner{
		cfg:    cfg,
		graphs: make(map[string]*datasetCache),
		now:    time.Now,   //lint:gdb-allow wallclock this IS the injectable clock's production default
		since:  time.Since, //lint:gdb-allow wallclock this IS the injectable clock's production default
	}
	if cfg.FrozenClock {
		r.now = func() time.Time { return time.Time{} }
		r.since = func(time.Time) time.Duration { return 0 }
	}
	return r, nil
}

// Config returns the effective configuration.
func (r *Runner) Config() Config { return r.cfg }

func (r *Runner) progressf(format string, args ...any) {
	if r.cfg.Progress != nil {
		r.mu.Lock()
		fmt.Fprintf(r.cfg.Progress, format+"\n", args...)
		r.mu.Unlock()
	}
}

// dataset returns the cache entry for a dataset, acquiring the graph
// and its GraphSON raw size on first use: from the artifact cache when
// Config.DatasetCacheDir is set (a warm hit maps the content-addressed
// snapshot), else by generation; the graph is identical either way.
// The parameters are drawn from it then, once per dataset, so every
// engine and every cell is asked about the same objects. Concurrent
// callers block on the entry's Once, so each graph is acquired exactly
// once per run and shared read-only afterwards.
func (r *Runner) dataset(name string) *datasetCache {
	r.mu.Lock()
	c, ok := r.graphs[name]
	if !ok {
		c = &datasetCache{}
		r.graphs[name] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		g, st, err := datasets.AcquireWith(name, r.cfg.Scale, datasets.AcquireOptions{
			CacheDir: r.cfg.DatasetCacheDir,
			Mmap:     true,
		})
		if err != nil {
			// NewRunner validated every dataset name up front.
			panic(err)
		}
		if st.Err != nil {
			r.progressf("dataset %s: %v", name, st.Err)
		}
		if st.Hit {
			r.progressf("dataset %s: warm cache hit (%d vertices, %d edges, mapped=%t)", name, g.NumVertices(), g.NumEdges(), st.Mapped)
		} else {
			suffix := ""
			if st.Stored {
				suffix = " (snapshot cached)"
			}
			r.progressf("dataset %s: generated %d vertices, %d edges%s", name, g.NumVertices(), g.NumEdges(), suffix)
		}
		c.g = g
		// A warm artifact carries the GraphSON size; otherwise stream-
		// count it here (the cold cached path computed it while storing).
		if st.RawJSON >= 0 {
			c.rawJSON = st.RawJSON
		} else {
			c.rawJSON = datasets.RawJSONSize(g)
		}
		c.pg = NewParamGen(g, r.cfg.Seed)
	})
	return c
}

// graph returns the (cached) dataset graph.
func (r *Runner) graph(name string) *core.Graph { return r.dataset(name).g }

// loadInto bulk-loads a dataset into a fresh engine, measuring time.
func (r *Runner) loadInto(engine, dataset string) (core.Engine, *core.LoadResult, time.Duration, error) {
	e, err := engines.New(engine)
	if err != nil {
		return nil, nil, 0, err
	}
	g := r.graph(dataset)
	start := r.now()
	res, err := e.BulkLoad(g)
	elapsed := r.since(start)
	if err != nil {
		e.Close()
		return nil, nil, 0, fmt.Errorf("%s on %s: load: %w", engine, dataset, err)
	}
	return e, res, elapsed, nil
}

// timed is the runner's one clock around queries: it runs one measured
// unit — an interactive execution, or a batch cell's consecutive
// executions — under a deadline of budget, reads the injectable clock
// around it and classifies how it ended. The clock covers query
// executions only: callers derive every parameter before calling.
func (r *Runner) timed(query string, budget time.Duration, run func(context.Context) (workload.Result, error)) Measurement {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := r.now()
	res, err := run(ctx)
	m := Measurement{Query: query, Elapsed: r.since(start), Count: res.Count}
	classify(&m, err)
	return m
}

// timeQuery times one execution of the micro query q with parameters
// p on e, recorded under name.
func (r *Runner) timeQuery(name string, e core.Engine, q *workload.Query, p workload.Params) Measurement {
	return r.timed(name, r.cfg.Timeout, func(ctx context.Context) (workload.Result, error) { return q.Run(ctx, e, p) })
}

// classify marks m with the outcome err reports. A timed-out
// measurement exports Count 0: how far a query got before its deadline
// depends on timing, and a count that does would make the export
// differ between runs of the same configuration.
func classify(m *Measurement, err error) {
	switch {
	case err == nil:
	case errors.Is(err, core.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		m.TimedOut = true
		m.Count = 0
		m.Error = err.Error()
	default:
		m.Failed = true
		m.Error = err.Error()
	}
}
