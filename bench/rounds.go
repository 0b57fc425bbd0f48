package main

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/serve/hist"
)

// minRounds is how many rounds a timed section runs whatever its
// budget, so that a median over rounds exists.
const minRounds = 3

// passResult is what one pass of a schedule on one engine did. wall is
// the timed part of the pass, read from the run's clock; rows counts
// result rows, the denominator of gremlin.rows_per_result.
type passResult struct {
	ops, failed, rows int64
	wall              time.Duration
}

// cost is the pass's seconds per operation.
func (r passResult) cost() float64 { return r.wall.Seconds() / float64(r.ops) }

// passFunc runs one pass of the workload's schedule on the named
// engine — on the tracing decorator when traced — and stores the
// latency of the schedule's i-th operation in lat[i].
type passFunc func(engine string, traced bool, lat []time.Duration) (passResult, error)

// runRounds calls round, with the round's number, until the timed
// section's budget is used: at least minRounds times, and stopping at
// the round boundary nearest the budget. It returns how many ran.
func (env *env) runRounds(round func(int) error) (int, error) {
	var elapsed, last time.Duration
	n := 0
	for ; n < minRounds || fits(elapsed, last, env.budget); n++ {
		start := time.Now()
		if err := round(n); err != nil {
			return n, err
		}
		last = time.Since(start)
		elapsed += last
	}
	return n, nil
}

// timedRounds is the timed section of read and write: rounds, in each
// of which every engine runs one pass of the schedule, as many as fit
// the budget. Every engine so does the same work as often, the slow
// ones take the share of the run their slowness asks for, and each is
// sampled over the whole run instead of in one stretch of it. On the
// traced run a round holds two passes per engine: untraced on the
// engine itself (latencies, allocations, the base of trace_overhead),
// then traced on the decorator (engine busy time, calls, rows, gremlin
// self time).
//
// An engine's numbers are made of the schedule's operations, each at
// the fastest it ran in any round (see fastest).
func (env *env) timedRounds(workload string, positions int, pass passFunc) error {
	type engineTotals struct {
		lats                  [][]time.Duration // per round, every operation's latency on the run's clock
		costs, tracedCosts    []float64         // seconds per operation, per round
		ops, tracedOps        int64
		allocs                uint64
		busy, tracedWall      time.Duration
		calls, pulled, result int64
	}
	totals := map[string]*engineTotals{}
	for _, en := range engineNames {
		totals[en] = &engineTotals{}
	}
	scratch := make([]time.Duration, positions)
	n, err := env.runRounds(func(int) error {
		for _, en := range engineNames {
			t := totals[en]
			before := mallocs()
			lat := make([]time.Duration, positions)
			r, err := pass(en, false, lat)
			if err != nil {
				return err
			}
			t.lats = append(t.lats, lat)
			t.allocs += mallocs() - before
			t.ops += r.ops
			t.costs = append(t.costs, r.cost())
			env.rep.attempted += r.ops
			env.rep.failed += r.failed

			if env.tr == nil {
				continue
			}
			end := env.tr.begin(workload+"."+en, -1)
			aggBefore := env.tr.agg(en)
			r, err = pass(en, true, scratch)
			end()
			if err != nil {
				return err
			}
			agg := env.tr.agg(en).sub(aggBefore)
			t.tracedOps += r.ops
			t.tracedWall += r.wall
			t.tracedCosts = append(t.tracedCosts, r.cost())
			t.busy += agg.busy
			t.calls += agg.calls
			t.pulled += agg.rows
			t.result += r.rows
		}
		return nil
	})
	if err != nil {
		return err
	}
	env.rep.notef("%s: %d rounds of one pass per engine", workload, n)

	groups := map[string]*hist.Histogram{}
	perOp := map[string]float64{}
	for _, en := range engineNames {
		groups[en], perOp[en] = distribution(fastest(totals[en].lats))
	}
	if err := env.reportLatency(groups); err != nil {
		return err
	}
	var turn, spread float64
	for _, en := range engineNames {
		env.rep.set("engines.ops_per_s."+en, 1/perOp[en], 0)
		turn += perOp[en]
		spread = max(spread, relSpread(totals[en].costs))
	}
	if env.tr == nil {
		// Overall: the schedule run on all nine engines in turn, that
		// is, the harmonic mean of the engines' throughputs.
		env.rep.set("ops_per_s", float64(len(engineNames))/turn, spread)
		return nil
	}

	// Figures per thousand operations, so they do not depend on how
	// many rounds fit.
	var selfS, wallS, tracedS, untracedS float64
	var pulled, result int64
	for _, en := range engineNames {
		t := totals[en]
		busy := 1000 * t.busy.Seconds() / float64(t.tracedOps)
		env.rep.set("engines.busy_s."+en, busy, 0)
		env.rep.set("engines.calls_per_op."+en, float64(t.calls)/float64(t.tracedOps), 0)
		env.rep.set("engines.allocs_per_op."+en, float64(t.allocs)/float64(t.ops), 0)
		wall := 1000 * t.tracedWall.Seconds() / float64(t.tracedOps)
		selfS += wall - busy
		wallS += wall
		// Whole passes on both sides: the traced ones record no
		// latency per operation.
		tracedS += slices.Min(t.tracedCosts)
		untracedS += slices.Min(t.costs)
		pulled += t.pulled
		result += t.result
	}
	// Self time of the layer between the schedule and the engine: the
	// operation spans minus the engine-call spans inside them, for a
	// thousand operations on each engine.
	env.rep.set("gremlin.self_s", selfS, 0)
	env.rep.set("gremlin.self_share", selfS/wallS, 0)
	if result > 0 {
		env.rep.set("gremlin.rows_per_result", float64(pulled)/float64(result), 0)
	}
	env.rep.set("trace_overhead", tracedS/untracedS, 0)
	return nil
}

// fastest returns, for every position of a schedule that the rounds
// repeat, the shortest time it took in any of them. The host disturbs
// the guest in bursts of milliseconds — it takes a core away, a
// neighbour floods the cache — that no loop the clock could time
// follows, at a rate that changes from one minute to the next. A burst
// only ever adds to whatever operation it falls into, and next round it
// falls into another one, so the shortest of an operation's times over
// rounds spread across the run is the one estimate of its cost that
// does not move with the host. What it leaves out is the program's own
// occasional work — a garbage collection pays into whichever operation
// it meets: allocs_per_op, gc_cpu_share and peak_rss_mb are where that
// shows.
func fastest(rounds [][]time.Duration) []time.Duration {
	out := append([]time.Duration(nil), rounds[0]...)
	for _, r := range rounds[1:] {
		for i, d := range r {
			out[i] = min(out[i], d)
		}
	}
	return out
}

// distribution returns ds as a histogram in clock ns and their mean in
// seconds.
func distribution(ds []time.Duration) (*hist.Histogram, float64) {
	h := hist.New()
	var sum time.Duration
	for _, d := range ds {
		h.Record(int64(d))
		sum += d
	}
	return h, sum.Seconds() / float64(len(ds))
}

// settle collects what the last load or pass left behind and sets the
// clock's rate afresh, so that neither the garbage nor a stale rate is
// charged to the timed span that follows.
func (env *env) settle() {
	runtime.GC()
	env.clk.steady()
}
