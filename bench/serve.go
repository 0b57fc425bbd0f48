package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/serve"
)

// serveMix is the traffic mix: reads beside writes, so core.Guard's
// exclusive writer contends with its shared readers.
var serveMix = serve.Mix{Read: 50, Traverse: 20, Insert: 15, Update: 15}

// serveEngines are the engines serve runs on: the fastest native store,
// the relational one, and the log-structured one that runs durable. A
// slice must last some tenths of a second — two clients that hand a
// lock back and forth fall in and out of step, and a shorter slice
// catches them in one state or the other — so nine engines would leave
// no time for the rounds a steady number takes. The other six read 0
// on this workload's per-engine metrics.
var serveEngines = []string{"neo-1.9", "sqlg", durableEngine}

const (
	serveClients = 2
	// durableEngine runs over engines.OpenDurable with the default WAL
	// policy (group commit every 64 records or 2 ms, 1 MiB segments);
	// every other engine is volatile.
	durableEngine = "titan-1.0"
)

// runServe is the serve workload: serve.Run in a closed loop — callers
// (harness batches, shell users) wait for each reply — with two
// clients, one per core, each sending a fixed number of operations, on
// each of serveEngines in turn, freshly loaded; rounds of that, as many
// as fit the budget. It is the only workload in which lsm/wal runs: after
// every titan-1.0 slice the durable store is reopened and audited.
func runServe(env *env) error {
	stores := 0
	openDurable := func() (core.Engine, string, error) {
		stores++
		dir := filepath.Join(env.dir, fmt.Sprintf("lsm-%d", stores))
		e, _, err := engines.OpenDurable(durableEngine, dir)
		return e, dir, err
	}
	set, err := env.setupLoaded("ldbc", env.size.serveScale, serveEngines, func(engine string) (core.Engine, error) {
		if engine != durableEngine {
			return engines.New(engine)
		}
		e, _, err := openDurable()
		return e, err
	})
	if err != nil {
		return err
	}
	env.reportSpaceOf(set)
	set.close()
	g := set.ds.g
	env.rep.notef("serve: ldbc@%g %d V / %d E, closed loop, %d clients, operations per client %v, mix %s, %s durable under %s (store=disk)",
		env.size.serveScale, g.NumVertices(), g.NumEdges(), serveClients, env.size.serveOps, serveMix, durableEngine, env.dir)

	type totals struct {
		costs, single, p50, p99 []float64 // per round: seconds per operation, latencies in µs
		busy                    float64
		calls, ops              int64
	}
	sums := map[string]*totals{}
	for _, en := range serveEngines {
		sums[en] = &totals{}
	}
	var overhead []float64 // traced over untraced cost, per engine and round
	var errs int64
	var audit *engines.DurableReport

	rounds, err := env.runRounds(func(int) error {
		for _, en := range serveEngines {
			// One engine alive at a time; the durable one opens over an
			// empty store.
			var raw core.Engine
			var dir string
			if en == durableEngine {
				raw, dir, err = openDurable()
			} else {
				raw, err = engines.New(en)
			}
			if err != nil {
				return err
			}
			l, err := env.load(en, raw, g)
			if err != nil {
				return err
			}

			var inserts int64
			// serveOnce returns serve's report and the factor that puts
			// its times on the run's clock: serve.Run reads the wall, and
			// the clock cannot look into it, so its rate is set right
			// before and held for the slice.
			serveOnce := func(e core.Engine, clients int) (*serve.Report, float64, error) {
				env.settle()
				start, began := env.clk.now(), time.Now()
				rep, err := serve.Run(serve.Config{
					Engine: e, EngineName: en, Dataset: "ldbc", Base: l.res.VertexIDs,
					Clients: clients, Ops: env.size.serveOps[en], Mix: serveMix,
					// Every round serves the same seeded streams, so that
					// rounds can be compared.
					Seed: env.seed,
				})
				onClock := float64(env.clk.now()-start) / float64(time.Since(began))
				if err != nil {
					return nil, 0, fmt.Errorf("serve %s: %w", en, err)
				}
				for _, k := range rep.PerOp {
					if k.Op == "insert" {
						inserts += k.Count - k.Errors
					}
				}
				errs += rep.Errors
				env.rep.attempted += rep.Ops
				env.rep.failed += rep.Errors
				return rep, onClock, nil
			}

			t := sums[en]
			if env.tr != nil {
				one, _, err := serveOnce(raw, 1)
				if err != nil {
					return err
				}
				t.single = append(t.single, 1/one.Throughput)
			}
			rep, onClock, err := serveOnce(raw, serveClients)
			if err != nil {
				return err
			}
			t.costs = append(t.costs, onClock/rep.Throughput)
			t.p50 = append(t.p50, onClock*float64(rep.Latency.P50)/1e3)
			t.p99 = append(t.p99, onClock*float64(rep.Latency.P99)/1e3)
			if env.tr != nil {
				before := env.tr.agg(en)
				end := env.tr.begin("serve."+en, -1)
				traced, _, err := serveOnce(l.e, serveClients)
				end()
				if err != nil {
					return err
				}
				agg := env.tr.agg(en).sub(before)
				t.busy += agg.busy.Seconds()
				t.calls += agg.calls
				t.ops += traced.Ops
				overhead = append(overhead, rep.Throughput/traced.Throughput)
				if en == durableEngine {
					env.titanStats(l)
				}
			}

			// Correctness: the engine holds the loaded vertices plus the
			// inserts it acknowledged; the durable store, reopened from
			// its log alone, passes its audit with the same count.
			want := int64(g.NumVertices()) + inserts
			n, cerr := raw.CountVertices()
			if err := raw.Close(); err != nil || cerr != nil {
				return fmt.Errorf("serve %s: count %v, close %v", en, cerr, err)
			}
			if n != want {
				env.rep.problemf("serve: %s holds %d vertices, loaded %d + acknowledged inserts %d", en, n, g.NumVertices(), inserts)
			}
			if en == durableEngine {
				if audit, err = engines.DurableAudit(en, dir); err != nil {
					return fmt.Errorf("serve: audit: %w", err)
				}
				if !audit.AuditOk || audit.Vertices != want {
					env.rep.problemf("serve: durable audit ok=%v vertices=%d (want %d) problems=%v", audit.AuditOk, audit.Vertices, want, audit.Problems)
				}
				os.RemoveAll(dir)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	env.rep.notef("serve: %d rounds; last audit_ok=%v, %d records replayed in %.3f s", rounds, audit.AuditOk, audit.RecordsReplayed, float64(audit.RecoveryWallNS)/1e9)

	// serve.Run cannot be looked into, so a position is a whole slice:
	// per engine the fastest round's cost, median and 99th percentile
	// (see fastest); overall, the engines' slices in turn.
	var turn, spread float64
	var p50s, p99s []float64
	for _, en := range serveEngines {
		t := sums[en]
		cost := slices.Min(t.costs)
		env.rep.set("engines.ops_per_s."+en, 1/cost, 0)
		turn += cost
		spread = max(spread, relSpread(t.costs))
		p50s = append(p50s, slices.Min(t.p50))
		p99s = append(p99s, slices.Min(t.p99))
	}
	if env.tr == nil {
		env.rep.set("ops_per_s", float64(len(serveEngines))/turn, spread)
		env.rep.notef("latency: from serve's own histograms, one per slice")
		env.rep.set("lat_p50_us", geomean(p50s), 0)
		env.rep.set("lat_tail_us", geomean(p99s), 0)
		return nil
	}

	var scaling []float64
	for _, en := range serveEngines {
		t := sums[en]
		env.rep.set("engines.p50_us."+en, slices.Min(t.p50), relSpread(t.p50))
		env.rep.set("engines.p99_us."+en, slices.Min(t.p99), relSpread(t.p99))
		env.rep.set("engines.busy_s."+en, 1000*t.busy/float64(t.ops), 0)
		env.rep.set("engines.calls_per_op."+en, float64(t.calls)/float64(t.ops), 0)
		scaling = append(scaling, slices.Min(t.single)/slices.Min(t.costs))
	}
	// Two clients over one: 2 when nothing is shared, 1 when the guard
	// serializes everything.
	env.rep.set("serve.scaling_1to2", geomean(scaling), 0)
	env.rep.set("serve.errors", float64(errs), 0)
	env.rep.set("trace_overhead", median(overhead), relSpread(overhead))
	env.rep.set("wal.recovery_s", float64(audit.RecoveryWallNS)/1e9, 0)
	env.rep.set("wal.records_replayed", float64(audit.RecordsReplayed), 0)
	return env.walKernel(g)
}
