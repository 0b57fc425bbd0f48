package harness

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines/kit"
	"repro/internal/par"
	"repro/internal/workload"
)

// jobKind distinguishes the independent cell types of the evaluation
// grid.
type jobKind int

const (
	// The micro workload is split into two independently resumable
	// cells per (engine, dataset): the interactive half also records
	// the load/space measurement (it loads first in plan order), the
	// batch half loads its own instance. Halving the cell granularity
	// halves the work a crash can lose — the paper's micro grid
	// dominates run time, and a cell is the checkpoint's atom.
	jobMicroI  jobKind = iota // interactive micro half (records the load)
	jobMicroB                 // batch micro half
	jobIndexed                // Q11/Q5 with an attribute index (Figure 4(c))
	jobComplex                // complex workload on ldbc (Figure 2)
)

func (k jobKind) String() string {
	switch k {
	case jobMicroI:
		return "micro-i"
	case jobMicroB:
		return "micro-b"
	case jobIndexed:
		return "indexed"
	case jobComplex:
		return "complex"
	}
	return "unknown"
}

// gridJob is one independently executable cell of the evaluation grid.
type gridJob struct {
	kind    jobKind
	engine  string
	dataset string
}

// cell is everything one grid job measured, in the one shape it has
// everywhere: a slot of Run's plan-indexed slice and a JSONL line of
// the checkpoint file. Each worker writes only its own slot, so the
// assembled Results keep the sequential order regardless of completion
// order; measurements round-trip exactly (durations are nanosecond
// integers), which is what makes a resumed run's export byte-identical
// to an uninterrupted one.
type cell struct {
	Index   int               `json:"i"` // position in the grid plan
	Loads   []LoadMeasurement `json:"loads,omitempty"`
	Micro   []Measurement     `json:"micro,omitempty"`
	Indexed []Measurement     `json:"indexed,omitempty"`
	Complex []Measurement     `json:"complex,omitempty"`
}

// Run executes the full evaluation: Table 3 statistics, loading and
// space (Figures 1(a,b), 3(a)), the micro workload in interactive and
// batch mode on every engine × dataset (Figures 3–7), the indexed
// variant of Q11 (Figure 4(c)), and — when ldbc is among the datasets —
// the complex workload (Figure 2).
//
// The pending grid cells are independent jobs fanned out by par.For
// across Config.Workers goroutines (with one worker, on the calling
// goroutine); results are assembled in plan order, so any worker count
// produces output identical to a sequential run. An engine that fails
// to construct or load is recorded as DNF (failed LoadMeasurement plus
// failed cells) and the evaluation continues.
//
// With Config.CheckpointPath set, every completed cell is streamed to
// the checkpoint file as its worker finishes; with Config.Resume, a
// compatible checkpoint is replayed first and only the cells it is
// missing are executed — the assembled Results are byte-identical to an
// uninterrupted run either way.
func (r *Runner) Run() (*Results, error) {
	jobs := planGrid(r.cfg.Engines, r.cfg.Datasets)
	cells := make([]cell, len(jobs))
	fp := r.fingerprint(len(jobs))

	// An incompatible checkpoint fails before dataset generation — the
	// longest sequential stretch of a run — so it surfaces in
	// milliseconds, not after the graphs are built.
	var recovered map[int]cell
	var cp *checkpointWriter
	if r.cfg.CheckpointPath != "" {
		if r.cfg.Resume {
			var err error
			recovered, err = loadCheckpoint(r.cfg.CheckpointPath, fp)
			if err != nil {
				return nil, err
			}
			if len(recovered) > 0 {
				r.progressf("resume: %d/%d cells restored from %s", len(recovered), len(jobs), r.cfg.CheckpointPath)
			}
		}
		var err error
		cp, err = newCheckpointWriter(r.cfg.CheckpointPath, fp, recovered)
		if err != nil {
			return nil, err
		}
		defer cp.close()
	}

	out := &Results{Config: r.cfg, Stats: map[string]datasets.Table3Row{}}
	for _, ds := range r.cfg.Datasets {
		r.progressf("stats %s", ds)
		out.Stats[ds] = datasets.Stats(r.graph(ds))
	}

	// Recovered cells are restored in place; only the rest is executed.
	pending := make([]int, 0, len(jobs))
	for i := range jobs {
		if c, ok := recovered[i]; ok {
			cells[i] = c
		} else {
			pending = append(pending, i)
		}
	}

	// A checkpoint write failure stops the grid: durability was
	// requested and is gone, so failing fast beats burning hours on
	// cells that cannot be checkpointed (everything already streamed
	// stays resumable). Cells already running finish; the rest are
	// skipped.
	var stopped atomic.Bool
	par.For(r.cfg.Workers, len(pending), func(k int) {
		if stopped.Load() {
			return
		}
		i := pending[k]
		cells[i] = r.runCell(i, jobs[i])
		if cp != nil && cp.write(&cells[i]) != nil {
			stopped.Store(true)
		}
	})
	if cp != nil {
		if err := cp.firstErr(); err != nil {
			return nil, err
		}
	}

	for i := range cells {
		out.Loads = append(out.Loads, cells[i].Loads...)
		out.Micro = append(out.Micro, cells[i].Micro...)
		out.Indexed = append(out.Indexed, cells[i].Indexed...)
		out.Complex = append(out.Complex, cells[i].Complex...)
	}
	return out, nil
}

// planGrid lays out the grid in the canonical sequential order; the
// job list order is also the assembly order of the result slices. The
// plan is shared by the runner and the -status command (which
// re-derives it from a checkpoint header): the same engine and dataset
// lists always produce the same indexed plan.
func planGrid(engineNames, datasetNames []string) []gridJob {
	var jobs []gridJob
	for _, ds := range datasetNames {
		for _, en := range engineNames {
			jobs = append(jobs, gridJob{jobMicroI, en, ds})
			jobs = append(jobs, gridJob{jobMicroB, en, ds})
			jobs = append(jobs, gridJob{jobIndexed, en, ds})
		}
		if ds == "ldbc" {
			for _, en := range engineNames {
				jobs = append(jobs, gridJob{jobComplex, en, ds})
			}
		}
	}
	return jobs
}

// runCell executes grid job j, the plan's cell i. A load error inside
// the job is recorded as DNF measurements, never returned: the paper's
// protocol is that a failed load costs that engine its cells, not the
// other engines their run.
func (r *Runner) runCell(i int, j gridJob) cell {
	c := cell{Index: i}
	r.progressf("%s %s on %s", j.kind, j.engine, j.dataset)
	switch j.kind {
	case jobMicroI:
		r.runMicro(&c, j.engine, j.dataset, ModeInteractive)
	case jobMicroB:
		r.runMicro(&c, j.engine, j.dataset, ModeBatch)
	case jobIndexed:
		r.runIndexed(&c, j.engine, j.dataset)
	case jobComplex:
		r.runComplex(&c, j.engine)
	}
	return c
}

// microCell is one micro-workload row of every export: the name it is
// recorded under, its query, and for Q32 the depth of Figure 6's sweep
// (0 keeps For's).
type microCell struct {
	name  string
	query *workload.Query
	depth int
}

// microCells lists the micro cells of either mode in export order:
// reads and traversals first (they share one instance), destructive
// operations last (each on its own instance in the freshly loaded
// state), Table 2 order within a group, and Q32 once per depth 2..5.
func microCells() []microCell {
	var reads, writes []microCell
	for _, q := range workload.Queries() {
		cells := []microCell{{q.Name, &q, 0}}
		if q.Num == 32 {
			cells = cells[:0]
			for depth := 2; depth <= 5; depth++ {
				cells = append(cells, microCell{q.Name + "(d=" + strconv.Itoa(depth) + ")", &q, depth})
			}
		}
		if q.Mutates {
			writes = append(writes, cells...)
		} else {
			reads = append(reads, cells...)
		}
	}
	return append(reads, writes...)
}

// dnf builds the cell the paper reports as DNF: the engine never got a
// loaded instance to run this query on.
func dnf(query string, err error) Measurement {
	return Measurement{Query: query, Failed: true, Error: "DNF: " + err.Error()}
}

// runMicro executes one half of the micro workload — interactive or
// batch — as its own grid cell. The halves share nothing at runtime
// but the dataset's parameter table (each loads its own engine), which
// is what lets a resumed run restore one half and re-execute only the
// other. The interactive half doubles as the load/space measurement;
// the batch half's load is purely operational.
//
// Isolation (the paper's protocol): every query starts from the freshly
// loaded state.
func (r *Runner) runMicro(c *cell, engine, dataset string, mode Mode) {
	ds := r.dataset(dataset)
	cells := microCells()

	record := func(m Measurement) {
		m.Engine, m.Dataset, m.Mode = engine, dataset, mode
		c.Micro = append(c.Micro, m)
	}

	lastIter := 0 // the interactive cell runs slot 0, the batch cell 1..BatchSize
	if mode == ModeBatch {
		lastIter = r.cfg.BatchSize
	}
	image, res, loadTime, err := r.loadInto(engine, dataset)
	if err == nil {
		if err = ds.pg.checkBatch(lastIter); err != nil {
			image.Close()
		}
	}
	if err != nil {
		if mode == ModeInteractive {
			c.Loads = append(c.Loads, LoadMeasurement{
				Engine: engine, Dataset: dataset, RawJSON: ds.rawJSON,
				Failed: true, Error: err.Error(),
			})
		}
		for _, mc := range cells {
			record(dnf(mc.name, err))
		}
		return
	}
	if mode == ModeInteractive {
		c.Loads = append(c.Loads, LoadMeasurement{
			Engine: engine, Dataset: dataset,
			Elapsed: loadTime, Space: image.SpaceUsage(), RawJSON: ds.rawJSON,
		})
	}

	// The interactive cell exports each query's latency, so it gets the
	// freshly loaded state as the paper's protocol does: its reads run
	// on the timed load and every mutating query on a load of its own.
	// A copy holds the same state, but its memory is laid out and cached
	// unlike a load's, which moves per-query latencies differently on
	// every engine. The batch cell, whose load is untimed, copies it
	// instead when the engine can (kit.Cloner): the reads share one
	// clone, closed before the mutating queries start, and each mutating
	// query runs on a clone of its own, so the load itself is never
	// queried. Either way two instances are alive at a time.
	reader := image
	defer image.Close()
	fresh := func() (core.Engine, *core.LoadResult, error) {
		e, res, _, err := r.loadInto(engine, dataset)
		return e, res, err
	}
	var readerErr error
	if cl, ok := image.(kit.Cloner); ok && mode == ModeBatch {
		reader, readerErr = cl.Clone()
		fresh = func() (core.Engine, *core.LoadResult, error) {
			c, err := cl.Clone()
			return c, res, err
		}
	}
	for _, mc := range cells {
		if mc.query.Mutates {
			continue
		}
		if readerErr != nil {
			record(dnf(mc.name, readerErr))
			continue
		}
		record(r.measure(reader, res, ds.pg, mc, mode))
	}
	if reader != nil && reader != image {
		reader.Close()
	}
	for _, mc := range cells {
		if !mc.query.Mutates {
			continue
		}
		exec, execRes, err := fresh()
		if err != nil {
			record(dnf(mc.name, err)) // the image is intact: only this query is DNF
			continue
		}
		record(r.measure(exec, execRes, ds.pg, mc, mode))
		exec.Close()
	}
}

// measure runs micro cell mc on e. Interactively that is one execution
// of parameter slot 0 under Timeout. A batch is BatchSize consecutive
// executions timed as one (Figure 1(c)) under Timeout × BatchSize: one
// timeout or failure marks the whole batch, and Count is that of the
// last successful iteration — a failed iteration must not overwrite it
// with its zero value — except after a timeout, which exports 0 (see
// classify). Every iteration's parameters are derived before the clock
// starts.
//
// Non-mutating batches fan out across Config.CellWorkers goroutines:
// engines guarantee race-free concurrent reads (see core.Engine), and
// the iterations fold in index order — first error wins, Count taken
// from the last success before it — so counts and failures are those of
// a sequential batch; Elapsed becomes the parallel wall time (hence
// CellWorkers in the Grid). Mutating batches always run sequentially:
// the engines are single-writer, and concurrent destructive iterations
// would make the instance state depend on scheduling.
func (r *Runner) measure(e core.Engine, res *core.LoadResult, pg *ParamGen, mc microCell, mode Mode) Measurement {
	q := mc.query
	first, n := 0, 1
	if mode == ModeBatch {
		n = r.cfg.BatchSize
		if q.Mutates {
			// Destructive iterations start at pool slot 1: slot 0 is the
			// interactive cell's, and keeping the offset keeps batch
			// parameters identical whether or not the halves ever shared
			// an instance (they did before the micro cell was split).
			first = 1
		}
	}
	ps := make([]workload.Params, n)
	for i := range ps {
		ps[i] = pg.For(q, first+i, res)
		if mc.depth > 0 {
			ps[i].Depth = mc.depth
		}
	}
	fanOut := mode == ModeBatch && r.cfg.CellWorkers > 1 && !q.Mutates && concurrentReads(e)
	return r.timed(mc.name, r.cfg.Timeout*time.Duration(n), func(ctx context.Context) (last workload.Result, err error) {
		if fanOut {
			got := make([]workload.Result, n)
			errs := make([]error, n)
			par.For(r.cfg.CellWorkers, n, func(i int) { got[i], errs[i] = q.Run(ctx, e, ps[i]) })
			for i := range n {
				if errs[i] != nil {
					return last, errs[i]
				}
				last = got[i]
			}
			return last, nil
		}
		for _, p := range ps {
			got, err := q.Run(ctx, e, p)
			if err != nil {
				return last, err
			}
			last = got
		}
		return last, nil
	})
}

// concurrentReads reports whether e's read results are independent of
// read scheduling (engines veto fan-out via core.ConcurrentReader).
func concurrentReads(e core.Engine) bool {
	if cr, ok := e.(core.ConcurrentReader); ok {
		return cr.ConcurrentReads()
	}
	return true
}

// runIndexed builds the attribute index on the Q11 property and re-runs
// Q11 (Figure 4(c)). Engines without user indexes (BlazeGraph) are
// skipped, engines that accept but ignore the index (Sparksee,
// ArangoDB) run unchanged — both as the paper found.
func (r *Runner) runIndexed(c *cell, engine, dataset string) {
	pg := r.dataset(dataset).pg

	record := func(m Measurement) {
		m.Engine, m.Dataset, m.Mode = engine, dataset, ModeInteractive
		c.Indexed = append(c.Indexed, m)
	}
	recordDNF := func(err error) {
		record(dnf("Q11(idx)", err))
		record(dnf("Q5(idx)", err))
	}

	if err := pg.checkBatch(1); err != nil { // Q11 runs slot 0, Q5 slot 1
		recordDNF(err)
		return
	}
	e, res, _, err := r.loadInto(engine, dataset)
	if err != nil {
		recordDNF(err)
		return
	}
	defer e.Close()
	if err := e.BuildVertexPropIndex(pg.vPropName); err != nil {
		if err != core.ErrUnsupported {
			recordDNF(err)
		}
		return
	}
	q := workload.ByName("Q11")
	record(r.timeQuery("Q11(idx)", e, q, pg.For(q, 0, res)))

	// Index maintenance overhead (Section 6.4: with indexes, CUD slows
	// by ~10%, up to ~30% for Neo 3.0 and ~100% for OrientDB): re-run
	// the property-insertion query against the indexed property.
	q5 := workload.ByName("Q5")
	p5 := pg.For(q5, 1, res)
	p5.NewPropName = pg.vPropName
	record(r.timeQuery("Q5(idx)", e, q5, p5))
}

// runComplex executes the 13 LDBC-derived queries (Figure 2) on ldbc.
func (r *Runner) runComplex(c *cell, engine string) {
	record := func(m Measurement) {
		m.Engine, m.Dataset, m.Mode = engine, "ldbc", ModeInteractive
		c.Complex = append(c.Complex, m)
	}

	e, res, _, err := r.loadInto(engine, "ldbc")
	if err != nil {
		for _, cq := range workload.ComplexQueries() {
			record(dnf(cq.Name, err))
		}
		return
	}
	defer e.Close()
	cp := ComplexFor(r.graph("ldbc"), res)
	for _, cq := range workload.ComplexQueries() {
		record(r.timed(cq.Name, r.cfg.Timeout, func(ctx context.Context) (workload.Result, error) { return cq.Run(ctx, e, cp) }))
	}
}
