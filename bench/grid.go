package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/harness"
	"repro/internal/serve/hist"
	"repro/internal/workload"
)

// gridCycle is one harness.Runner.Run over one engine's share of the
// grid. wall is read from the run's clock; onClock is the factor that
// puts the times the harness itself took off the wall — every cell's
// Elapsed — on that clock.
type gridCycle struct {
	res     *harness.Results
	wall    time.Duration
	onClock float64
}

// clockTick is the harness's Progress writer: a line arrives after
// every grid cell, and the clock calibrates there. Within a cell the
// rate set before it holds.
type clockTick struct{ clk *clock }

func (t clockTick) Write(p []byte) (int, error) {
	t.clk.steady()
	return len(p), nil
}

// cells returns every query cell of a cycle.
func (c *gridCycle) cells() []harness.Measurement {
	all := append([]harness.Measurement(nil), c.res.Micro...)
	all = append(all, c.res.Indexed...)
	return append(all, c.res.Complex...)
}

// spans returns the cycle as timed spans on the run's clock, in an
// order every cycle of the engine repeats: its cells, its loads, and
// what is left of its wall time, the harness's own work.
func (c *gridCycle) spans() []time.Duration {
	var out []time.Duration
	rest := c.wall
	add := func(elapsed time.Duration) {
		d := time.Duration(c.onClock * float64(elapsed))
		out = append(out, d)
		rest -= d
	}
	for _, m := range c.cells() {
		add(m.Elapsed)
	}
	for _, l := range c.res.Loads {
		add(l.Elapsed)
	}
	return append(out, rest)
}

// executions is how many query executions a cell stands for.
func executions(m harness.Measurement, batch int) float64 {
	if m.Mode == harness.ModeBatch {
		return float64(batch)
	}
	return 1
}

// measured is the time the harness itself attributes to the cycle's
// loads and cells.
func (c *gridCycle) measured() (d time.Duration) {
	for _, l := range c.res.Loads {
		d += l.Elapsed
	}
	for _, m := range c.cells() {
		d += m.Elapsed
	}
	return d
}

// gridRefEngines are the three fastest engines. Set-up warms the grid
// up on them, and on the traced run they run an untraced cycle first,
// as the base of trace_overhead: a fixed cost per call weighs most on
// them, and an untraced cycle of every engine would double the run.
var gridRefEngines = map[string]bool{"neo-1.9": true, "neo-3.0": true, "orient": true}

// runGrid is the grid workload: the evaluation users run with
// gdb-bench — interactive and batch micro cells, the indexed cells and
// the complex workload, isolation on — followed by the JSON export and
// the shapes report. It is the only workload in which the harness
// itself (isolation reloads, parameter draw, result assembly, export)
// does work. Each engine's share of the grid runs through its own
// Runner, once per round, in as many rounds as fit the timed section.
// Neither the datasets (fixed generator
// seeds) nor the harness's parameters (Config.Seed, the default its
// users run with) depend on the run's seed: a breadth-first search to
// depth 5 costs whatever its start vertex makes it cost, and a grid
// whose starts moved with the seed would measure the seed.
func runGrid(env *env) error {
	cfg := harness.DefaultConfig()
	cfg.Datasets = env.size.gridDatasets
	cfg.Scale = env.size.gridScale
	cfg.BatchSize = env.size.gridBatch
	cfg.Workers, cfg.CellWorkers = 1, 1

	// Set-up: a cold acquire of every dataset into the artifact cache
	// the runners then open warm, and a warm-up cycle of the grid on the
	// reference engines, so that the first timed round does not pay
	// for what every process pays once.
	var graphs []*core.Graph
	cache, err := timeSetup(env, func() (string, error) {
		dir, err := os.MkdirTemp(env.dir, "datasets-")
		if err != nil {
			return "", err
		}
		graphs = graphs[:0]
		for _, ds := range cfg.Datasets {
			g, st, err := datasets.AcquireWith(ds, cfg.Scale, datasets.AcquireOptions{CacheDir: dir})
			if err != nil {
				return "", err
			}
			if st.Err != nil {
				return "", st.Err
			}
			graphs = append(graphs, g)
		}
		warm := cfg
		warm.DatasetCacheDir = dir
		warm.Engines = nil
		for _, en := range engineNames {
			if gridRefEngines[en] {
				warm.Engines = append(warm.Engines, en)
			}
		}
		r, err := harness.NewRunner(warm)
		if err != nil {
			return "", err
		}
		_, err = r.Run()
		return dir, err
	}, func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return err
	}
	cfg.DatasetCacheDir = cache
	for _, g := range graphs {
		if !poolsDistinct(g, cfg.Seed, cfg.BatchSize) {
			return fmt.Errorf("grid: harness seed %d makes two batch iterations delete the same object (ROADMAP, the Q18 item); pick datasets or a scale on which it does not", cfg.Seed)
		}
	}
	env.rep.notef("grid: %v at scale %g, batch %d, harness seed %d", cfg.Datasets, cfg.Scale, cfg.BatchSize, cfg.Seed)

	once := func(engine string) (*gridCycle, error) {
		one := cfg
		one.Engines = []string{engine}
		one.Progress = clockTick{env.clk}
		env.settle()
		start, began := env.clk.now(), time.Now()
		r, err := harness.NewRunner(one)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		wall := env.clk.now() - start
		return &gridCycle{res: res, wall: wall, onClock: float64(wall) / float64(time.Since(began))}, err
	}

	cycles := map[string][]*gridCycle{}
	untraced := map[string]*gridCycle{}
	rounds, err := env.runRounds(func(round int) error {
		for _, en := range engineNames {
			end := func() {}
			if env.tr != nil {
				// The first round's untraced cycle of a reference engine
				// is the base of trace_overhead.
				if round == 0 && gridRefEngines[en] {
					if untraced[en], err = once(en); err != nil {
						return err
					}
				}
				ctor := engines.Constructor(en)
				unregister := engines.Register(en, func() core.Engine { return env.traced(en, ctor()) })
				defer unregister()
				end = env.tr.begin("grid."+en, -1)
			}
			c, err := once(en)
			end()
			if err != nil {
				return err
			}
			cycles[en] = append(cycles[en], c)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The export and the shapes report of the whole grid: every
	// engine's first cycle, assembled in plan order.
	all := &harness.Results{Config: cfg, Stats: cycles[engineNames[0]][0].res.Stats}
	for _, en := range engineNames {
		res := cycles[en][0].res
		all.Loads = append(all.Loads, res.Loads...)
		all.Micro = append(all.Micro, res.Micro...)
		all.Indexed = append(all.Indexed, res.Indexed...)
		all.Complex = append(all.Complex, res.Complex...)
	}
	env.clk.steady()
	exportStart := env.clk.now()
	var export, shapes bytes.Buffer
	if err := harness.ExportJSON(all, &export); err != nil {
		return err
	}
	if err := harness.Report(all, "shapes", &shapes); err != nil {
		return err
	}
	exportTime := env.clk.now() - exportStart
	back, err := harness.ImportJSON(&export)
	if err != nil || len(back.Micro) != len(all.Micro) || len(back.Loads) != len(all.Loads) {
		env.rep.problemf("grid: the export does not read back whole: %v", err)
	}
	shapesOK, shapesAll := 0, 0
	for _, line := range strings.Split(shapes.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "  PASS "):
			shapesOK++
			shapesAll++
		case strings.HasPrefix(line, "  FAIL "):
			shapesAll++
		}
	}

	// Correctness and bookkeeping per cell: none failed or timed out,
	// every cycle of an engine has the same cells with the same result
	// counts, and every non-mutating cell counts alike on all engines.
	weight := map[string]float64{} // executions in one cycle: a batch cell is BatchSize of them
	counts := map[string]int64{}
	for _, en := range engineNames {
		for i, c := range cycles[en] {
			for _, l := range c.res.Loads {
				if l.Failed {
					env.rep.problemf("grid: load of %s into %s failed: %s", l.Dataset, en, l.Error)
				}
			}
			first := cycles[en][0].cells()
			if len(c.cells()) != len(first) || len(c.res.Loads) != len(cycles[en][0].res.Loads) {
				return fmt.Errorf("grid: %s ran %d cells in round %d, %d in the first", en, len(c.cells()), i, len(first))
			}
			for j, m := range c.cells() {
				w := executions(m, cfg.BatchSize)
				env.rep.attempted += int64(w)
				if m.Failed || m.TimedOut {
					env.rep.failed += int64(w)
					env.rep.notef("grid: %s %s %s %s: %s", en, m.Dataset, m.Query, m.Mode, m.Error)
					continue
				}
				if i > 0 {
					if first[j].Count != m.Count {
						env.rep.problemf("grid: %s %s %s %s differs between cycles", en, m.Dataset, m.Query, m.Mode)
					}
					continue
				}
				weight[en] += w
				q, cq := workload.ByName(strings.SplitN(m.Query, "(", 2)[0]), workload.ComplexByName(m.Query)
				if (q != nil && !q.Mutates) || (cq != nil && !cq.Mutates) {
					key := m.Dataset + " " + m.Query + " " + string(m.Mode)
					if want, seen := counts[key]; seen && want != m.Count {
						env.rep.problemf("grid: %s returns %d on %s, %d on another engine", key, m.Count, en, want)
					}
					counts[key] = m.Count
				}
			}
		}
	}
	amps := map[string][]float64{}
	for _, l := range all.Loads {
		amps[l.Engine] = append(amps[l.Engine], float64(l.Space.Total)/float64(l.RawJSON))
	}
	env.reportSpace(amps)

	// An engine's cycle is made of its cells, its loads and what the
	// harness spent outside both, each at the fastest of the rounds (see
	// fastest); the grid is the nine cycles in turn plus the export.
	// Each execution of a batch cell is taken at the batch's mean: the
	// harness times the batch, not its iterations.
	groups := map[string]*hist.Histogram{}
	cycleS := map[string]float64{}
	turn, total := exportTime.Seconds(), 0.0
	for _, en := range engineNames {
		var spans [][]time.Duration
		for _, c := range cycles[en] {
			spans = append(spans, c.spans())
		}
		best := fastest(spans)
		lat := hist.New()
		for j, m := range cycles[en][0].cells() {
			w := executions(m, cfg.BatchSize)
			for k := 0; k < int(w); k++ {
				lat.Record(int64(float64(best[j]) / w))
			}
		}
		groups[en] = lat
		for _, d := range best {
			cycleS[en] += d.Seconds()
		}
		turn += cycleS[en]
		total += weight[en]
		env.rep.set("engines.ops_per_s."+en, weight[en]/cycleS[en], 0)
		env.rep.notef("grid: %s runs its %.0f executions in %.3f s", en, weight[en], cycleS[en])
	}
	if err := env.reportLatency(groups); err != nil {
		return err
	}
	cells := len(all.Micro) + len(all.Indexed) + len(all.Complex)
	env.rep.notef("grid: %d rounds of %d cells, %d of %d shapes pass", rounds, cells, shapesOK, shapesAll)
	if env.tr == nil {
		env.rep.set("ops_per_s", total/turn, 0)
		return nil
	}

	// Per-layer: the phases of the assembled grid.
	var load time.Duration
	for _, l := range all.Loads {
		load += l.Elapsed
	}
	sum := func(ms []harness.Measurement) (d time.Duration) {
		for _, m := range ms {
			d += m.Elapsed
		}
		return d
	}
	micro, indexed, complex := sum(all.Micro), sum(all.Indexed), sum(all.Complex)
	var wall time.Duration
	for _, en := range engineNames {
		wall += cycles[en][0].wall
	}
	set := func(name string, v float64) { env.rep.set("harness."+name, v, 0) }
	set("wall_s", (wall + exportTime).Seconds())
	set("acquire_s", env.setupS())
	set("load_s", load.Seconds())
	set("micro_s", micro.Seconds())
	set("indexed_s", indexed.Seconds())
	set("complex_s", complex.Seconds())
	set("export_s", exportTime.Seconds())
	// What the harness spends outside any measured cell: isolation
	// reloads, the batch half's load, warm dataset opens, statistics,
	// parameter draw, assembly.
	set("overhead_s", (wall - load - micro - indexed - complex).Seconds())
	set("cells", float64(cells))
	set("shapes_pass", float64(shapesOK))
	set("shapes_fail", float64(shapesAll-shapesOK))
	var timeouts, failed float64
	for _, ms := range [][]harness.Measurement{all.Micro, all.Indexed, all.Complex} {
		for _, m := range ms {
			if m.TimedOut {
				timeouts++
			}
			if m.Failed {
				failed++
			}
		}
	}
	set("timeouts", timeouts)
	set("failed", failed)
	var query, tracedRef, untracedRef float64
	for _, en := range engineNames {
		agg := env.tr.agg(en)
		n := float64(len(cycles[en]))
		env.rep.set("engines.busy_s."+en, agg.busy.Seconds()/n, 0)
		env.rep.set("engines.calls_per_op."+en, float64(agg.calls)/n/weight[en], 0)
		query += (agg.busy - agg.load).Seconds() / n
		if c := untraced[en]; c != nil {
			tracedRef += cycles[en][0].measured().Seconds()
			untracedRef += c.measured().Seconds()
		}
	}
	// Time inside cells that no engine call accounts for: gremlin and
	// the query closures.
	selfS := (micro + indexed + complex).Seconds() - query
	env.rep.set("gremlin.self_s", selfS, 0)
	env.rep.set("gremlin.self_share", selfS/(micro+indexed+complex).Seconds(), 0)
	env.rep.set("trace_overhead", tracedRef/untracedRef, 0)
	return nil
}

// poolsDistinct reports whether the batch iterations of each
// destructive query (Q18–Q21) get distinct targets under seed.
// harness.ParamGen samples with replacement (ROADMAP, the Q18 item),
// so on an unlucky seed two batch iterations delete the same object
// and the cell fails; the benchmark must run workloads on which
// nothing fails, and leaves the harness bug to its own issue.
func poolsDistinct(g *core.Graph, seed int64, batch int) bool {
	ident := &core.LoadResult{VertexIDs: make([]core.ID, g.NumVertices()), EdgeIDs: make([]core.ID, g.NumEdges())}
	for i := range ident.VertexIDs {
		ident.VertexIDs[i] = core.ID(i)
	}
	for i := range ident.EdgeIDs {
		ident.EdgeIDs[i] = core.ID(i)
	}
	pg := harness.NewParamGen(g, seed)
	for _, name := range []string{"Q18", "Q19", "Q20", "Q21"} {
		q := workload.ByName(name)
		seen := map[string]bool{}
		// Batch iterations use pool slots 1..batch; slot 0 is the
		// interactive cell's, which runs on its own instance.
		for iter := 1; iter <= batch; iter++ {
			p := pg.For(q, iter, ident)
			key := fmt.Sprint(p.V, p.VPropName)
			if q.Num == 19 || q.Num == 21 {
				key = fmt.Sprint(p.E, p.EPropName)
			}
			if seen[key] {
				return false
			}
			seen[key] = true
		}
	}
	return true
}
