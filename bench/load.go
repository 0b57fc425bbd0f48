package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/graphson"
)

// loadRound is what one pass over the load workload's datasets took.
type loadRound struct {
	wall                                          time.Duration // the timed parts on the run's clock, collections between them left out
	elements                                      float64       // vertices and edges made queryable, all engines
	cold, openHeap, openMmap, stats, jsonW, jsonR time.Duration
	artifactBytes, jsonBytes                      int64
	engineSecs                                    map[string]float64
	// steps holds every timed span of the round in the order it ran:
	// per dataset the six acquire and GraphSON spans, then one
	// BulkLoad+SpaceUsage+Close per engine, whose position cellAt
	// gives by engine and dataset.
	steps  []time.Duration
	cellAt map[[2]string]int
	traced bool
}

// runLoad is the load workload (the paper's Figures 1 and 3(a)): per
// dataset a cold acquire into an empty artifact cache, a warm heap
// open, a warm mmap open of the CSR, the Table 3 statistics, a
// GraphSON write and read, then bulk load, space accounting and close
// on nine fresh engines. The query path is idle throughout.
func runLoad(env *env) error {
	scale := env.size.loadScale
	// Set-up generates the reference graphs the timed acquires must
	// reproduce and sizes their GraphSON, the base of space_amp.
	want, err := timeSetup(env, func() (map[string]dataset, error) {
		out := map[string]dataset{}
		for _, name := range env.size.loadSets {
			ds, err := acquire(name, scale)
			if err != nil {
				return nil, err
			}
			out[name] = ds
		}
		return out, nil
	}, func(map[string]dataset) {})
	if err != nil {
		return err
	}
	var generate time.Duration
	for _, name := range env.size.loadSets {
		start := time.Now()
		if _, err := acquire(name, scale); err != nil {
			return err
		}
		generate += time.Since(start)
	}

	var rounds []loadRound
	amps := map[string][]float64{}
	end := func() {}
	if env.tr != nil {
		end = env.tr.begin("load", -1)
	}
	_, err = env.runRounds(func(n int) error {
		// The traced run loads through the decorator on every other
		// round; the rest are the base of trace_overhead.
		r, err := env.loadOnce(n, env.tr != nil && n%2 == 1, want, amps)
		if err != nil {
			return err
		}
		rounds = append(rounds, *r)
		return nil
	})
	end()
	if err != nil {
		return err
	}
	cellAt := rounds[0].cellAt
	env.rep.notef("load: %v at scale %g, %d rounds of %d spans, %d of them loads", env.size.loadSets, scale, len(rounds), len(rounds[0].steps), len(cellAt))

	env.reportSpace(amps)
	// Every span at the fastest the untraced rounds ran it (see
	// fastest); an operation is one vertex or edge made queryable.
	var untraced [][]time.Duration
	for _, r := range rounds {
		if !r.traced {
			untraced = append(untraced, r.steps)
		}
	}
	best := fastest(untraced)
	perEngine := rounds[0].elements / float64(len(engineNames))
	for _, en := range engineNames {
		var d time.Duration
		for _, name := range env.size.loadSets {
			d += best[cellAt[[2]string{en, name}]]
		}
		env.rep.set("engines.ops_per_s."+en, perEngine/d.Seconds(), 0)
	}
	if env.tr == nil {
		// Latency: a load is one (engine, dataset) cell. The cells are a
		// fixed population of very different sizes, so the typical one
		// is their geometric mean. The tail is the 90th percentile of
		// the 27, taken as the geometric mean of the cell at that rank
		// and its two neighbours: one cell alone is one bulk load, and
		// moves with whatever the host did during its best round.
		var cells []float64
		for _, at := range cellAt {
			cells = append(cells, float64(best[at])/1e3)
		}
		cells = sorted(cells)
		at := int(0.9*float64(len(cells))+0.5) - 1
		around := cells[max(0, at-1):min(len(cells), at+2)]
		env.rep.notef("latency: lat_p50_us is the geometric mean of %d loads, lat_tail_us that of the %d around their p90", len(cells), len(around))
		env.rep.set("lat_p50_us", geomean(cells), 0)
		env.rep.set("lat_tail_us", geomean(around), 0)
		var walls []float64
		for _, r := range rounds {
			walls = append(walls, r.wall.Seconds())
		}
		var total time.Duration
		for _, d := range best {
			total += d
		}
		env.rep.set("ops_per_s", rounds[0].elements/total.Seconds(), relSpread(walls))
		return nil
	}

	med := func(f func(loadRound) time.Duration) (float64, float64) {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r).Seconds())
		}
		return median(xs), relSpread(xs)
	}
	cold, coldSpread := med(func(r loadRound) time.Duration { return r.cold })
	env.rep.set("datasets.generate_s", generate.Seconds(), 0)
	// A cold acquire generates, sizes the GraphSON and stores the
	// artifact; what generation alone does not explain is the store.
	env.rep.set("datasets.store_s", cold-generate.Seconds(), coldSpread)
	for name, f := range map[string]func(loadRound) time.Duration{
		"datasets.open_heap_s": func(r loadRound) time.Duration { return r.openHeap },
		"datasets.open_mmap_s": func(r loadRound) time.Duration { return r.openMmap },
		"datasets.stats_s":     func(r loadRound) time.Duration { return r.stats },
		"graphson.write_s":     func(r loadRound) time.Duration { return r.jsonW },
		"graphson.read_s":      func(r loadRound) time.Duration { return r.jsonR },
	} {
		v, spread := med(f)
		env.rep.set(name, v, spread)
	}
	env.rep.set("datasets.artifact_bytes", float64(rounds[0].artifactBytes), 0)
	env.rep.set("graphson.bytes", float64(rounds[0].jsonBytes), 0)
	var tracedRounds, tracedSecs, untracedSecs []float64
	for _, r := range rounds {
		var secs float64
		for _, s := range r.engineSecs {
			secs += s
		}
		if r.traced {
			tracedSecs = append(tracedSecs, secs)
			tracedRounds = append(tracedRounds, 1)
		} else {
			untracedSecs = append(untracedSecs, secs)
		}
	}
	for _, en := range engineNames {
		agg := env.tr.agg(en)
		env.rep.set("engines.busy_s."+en, agg.busy.Seconds()/float64(len(tracedRounds)), 0)
		env.rep.set("engines.calls_per_op."+en, float64(agg.calls)/float64(len(tracedRounds))/(rounds[0].elements/float64(len(engineNames))), 0)
	}
	// No query runs, so nothing is spent between a schedule and an
	// engine: gremlin.self_s is not set and reads 0.
	env.rep.set("trace_overhead", median(tracedSecs)/median(untracedSecs), 0)
	env.loadKernels(want[env.size.loadSets[0]].g)
	return nil
}

// loadOnce runs one round in a fresh cache directory.
func (env *env) loadOnce(round int, traced bool, want map[string]dataset, amps map[string][]float64) (*loadRound, error) {
	cache, err := env.scratch(fmt.Sprintf("cache-%d", round))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cache)
	r := &loadRound{engineSecs: map[string]float64{}, traced: traced, cellAt: map[[2]string]int{}}
	scale := env.size.loadScale
	// The clock cannot look into the calls timed here, so its rate is
	// set right before each.
	timed := func(into *time.Duration, fn func() error) error {
		env.clk.steady()
		start := env.clk.now()
		err := fn()
		d := env.clk.now() - start
		*into += d
		r.steps = append(r.steps, d)
		return err
	}
	for _, name := range env.size.loadSets {
		ref := want[name]
		var g *core.Graph
		var st datasets.CacheStatus
		if err := timed(&r.cold, func() (err error) {
			g, st, err = datasets.AcquireWith(name, scale, datasets.AcquireOptions{CacheDir: cache})
			return err
		}); err != nil {
			return nil, err
		}
		if st.Hit || !st.Stored || st.Err != nil {
			return nil, fmt.Errorf("load: cold acquire of %s: hit=%v stored=%v err=%v", name, st.Hit, st.Stored, st.Err)
		}
		if fi, err := os.Stat(st.Path); err == nil {
			r.artifactBytes += fi.Size()
		}
		var warm *core.Graph
		if err := timed(&r.openHeap, func() (err error) {
			warm, st, err = datasets.AcquireWith(name, scale, datasets.AcquireOptions{CacheDir: cache})
			return err
		}); err != nil {
			return nil, err
		}
		var csr *core.CSR
		var mst datasets.CacheStatus
		if err := timed(&r.openMmap, func() (err error) {
			csr, mst, err = datasets.AcquireCSR(name, scale, datasets.AcquireOptions{CacheDir: cache, Mmap: true})
			return err
		}); err != nil {
			return nil, err
		}
		var row datasets.Table3Row
		timed(&r.stats, func() error { row = datasets.StatsCSR(csr, 1); return nil })
		var doc bytes.Buffer
		if err := timed(&r.jsonW, func() error { return graphson.Write(&doc, g) }); err != nil {
			return nil, err
		}
		r.jsonBytes += int64(doc.Len())
		size := int64(doc.Len())
		var back *core.Graph
		if err := timed(&r.jsonR, func() (err error) { back, err = graphson.Read(&doc); return err }); err != nil {
			return nil, err
		}

		// Every path must have produced the reference graph.
		v, e := ref.g.NumVertices(), ref.g.NumEdges()
		switch {
		case !st.Hit || !mst.Hit:
			env.rep.problemf("load: warm opens of %s missed the cache (heap hit=%v, mmap hit=%v)", name, st.Hit, mst.Hit)
		case g.NumVertices() != v || g.NumEdges() != e || warm.NumVertices() != v || warm.NumEdges() != e ||
			csr.NumVertices() != v || csr.NumEdges() != e || back.NumVertices() != v || back.NumEdges() != e || row.V != v || row.E != e:
			env.rep.problemf("load: %s should have %d vertices / %d edges; cold %d/%d, heap %d/%d, mmap %d/%d, graphson %d/%d, stats %d/%d",
				name, v, e, g.NumVertices(), g.NumEdges(), warm.NumVertices(), warm.NumEdges(),
				csr.NumVertices(), csr.NumEdges(), back.NumVertices(), back.NumEdges(), row.V, row.E)
		case size != ref.rawJSON:
			env.rep.problemf("load: GraphSON of %s is %d bytes, the artifact says %d", name, size, ref.rawJSON)
		}

		for _, en := range engineNames {
			raw, err := engines.New(en)
			if err != nil {
				return nil, err
			}
			eng := raw
			if traced {
				eng = env.traced(en, raw)
			}
			// Collect the previous engine here, outside the timed span,
			// rather than in the middle of this one's load.
			env.settle()
			loadStart := env.clk.now()
			res, err := eng.BulkLoad(g)
			if err != nil {
				return nil, fmt.Errorf("load: %s into %s: %w", name, en, err)
			}
			space := eng.SpaceUsage()
			if err := eng.Close(); err != nil {
				return nil, err
			}
			d := env.clk.now() - loadStart
			r.engineSecs[en] += d.Seconds()
			r.cellAt[[2]string{en, name}] = len(r.steps)
			r.steps = append(r.steps, d)
			r.elements += float64(v + e)
			env.rep.attempted += int64(v + e)
			if len(res.VertexIDs) != v || len(res.EdgeIDs) != e || space.Total <= 0 {
				env.rep.problemf("load: %s loaded %d/%d of %s's %d/%d elements into %d bytes", en, len(res.VertexIDs), len(res.EdgeIDs), name, v, e, space.Total)
			}
			if round == 0 {
				amps[en] = append(amps[en], float64(space.Total)/float64(ref.rawJSON))
			}
		}
	}
	r.wall = r.cold + r.openHeap + r.openMmap + r.stats + r.jsonW + r.jsonR
	for _, s := range r.engineSecs {
		r.wall += time.Duration(s * float64(time.Second))
	}
	return r, nil
}
