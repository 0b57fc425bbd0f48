package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/gremlin"
)

// opTimeout bounds one pass, not one operation: a context per
// operation would cost more than a by-ID read. It is the harness's
// per-query timeout times a generous operation count.
const opTimeout = 60 * time.Second

// runRead is the read workload: one seeded schedule of every
// non-mutating query on ldbc, the same on all nine engines.
func runRead(env *env) error {
	set, err := env.setupLoaded("ldbc", env.size.readScale, engineNames, nil)
	if err != nil {
		return err
	}
	// Nothing mutates, so the nine engines set-up loaded serve every
	// round.
	defer set.close()
	env.reportSpaceOf(set)
	loaded := map[string]*loaded{}
	for _, l := range set.engines {
		loaded[l.name] = l
	}
	g := set.ds.g
	ops, err := readSchedule(g, env.seed)
	if err != nil {
		return err
	}
	env.rep.notef("read: ldbc@%g %d V / %d E, %d operations per pass",
		env.size.readScale, g.NumVertices(), g.NumEdges(), len(ops))

	// digests[engine][traced] is the per-operation result digest of the
	// engine's first pass; every later pass must repeat it.
	digests := map[string]map[bool]uint64{}
	failing := map[string]int{}

	pass := func(engine string, traced bool, lat []time.Duration) (passResult, error) {
		l := loaded[engine]
		e := l.raw
		if traced {
			e = l.e
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		// counts holds every operation's result for the digest; -1 marks
		// a modeled failure, which stays out of it.
		counts := make([]int64, len(ops))
		var r passResult
		env.clk.calibrate()
		start := env.clk.now()
		prev := start
		for i := range ops {
			op := &ops[i]
			var end func()
			if traced {
				end = env.tr.begin(op.name(), int32(i))
			}
			res, err := op.run(ctx, e, l.res)
			if traced {
				end()
			}
			// One clock reading per operation: each ends where the next
			// begins.
			now := env.clk.now()
			lat[i] = now - prev
			prev = now
			r.ops++
			switch {
			case err == nil:
				counts[i] = res.Count
				if op.scalar {
					r.rows++
				} else {
					r.rows += res.Count
				}
			case errors.Is(err, core.ErrOutOfMemory), errors.Is(err, core.ErrTimeout):
				counts[i] = -1
				r.failed++
				failing[engine+" "+op.name()+": "+err.Error()]++
			default:
				return r, fmt.Errorf("%s %s: %w", engine, op.name(), err)
			}
		}
		r.wall = prev - start
		h := fnv.New64a()
		fmt.Fprint(h, counts)
		if digests[engine] == nil {
			digests[engine] = map[bool]uint64{}
		}
		if want, seen := digests[engine][traced]; seen && want != h.Sum64() {
			env.rep.problemf("read: %s returned different results on a later pass", engine)
		}
		digests[engine][traced] = h.Sum64()
		return r, nil
	}
	if err := env.timedRounds("read", len(ops), pass); err != nil {
		return err
	}

	// Correctness: every engine answered every operation alike, traced
	// and untraced, provided none hit a modeled failure.
	if len(failing) == 0 {
		want := digests[engineNames[0]][false]
		for _, en := range engineNames {
			for traced, got := range digests[en] {
				if got != want {
					env.rep.problemf("read: result digest of %s (traced=%v) is %x, %s has %x", en, traced, got, engineNames[0], want)
				}
			}
		}
	}
	for what, n := range failing {
		env.rep.notef("modeled failure ×%d: %s", n, what)
	}
	if env.tr != nil {
		env.titanStats(loaded[durableEngine])
		if err := env.checkExplain(set); err != nil {
			return err
		}
		env.readKernels(g)
	}
	return nil
}

// checkExplain verifies that planning sees through the decorator —
// Explain() must render byte-identically on the engine and on its
// traced wrapper — and records the time one Explain takes.
func (env *env) checkExplain(set loadedSet) error {
	ctx := context.Background()
	plans := func(e core.Engine, res *core.LoadResult) []string {
		g := gremlin.New(e)
		v := res.VertexIDs[0]
		return []string{
			g.V().Has("kind", core.S("person")).DegreeAtLeast(core.DirIn, 3).Explain(ctx).String(),
			g.VID(v).Out("knows").Out("knows").Dedup().Explain(ctx).String(),
			g.E().HasLabel("knows").Explain(ctx).String(),
			g.VHas("kind", core.S("tag")).In().Dedup().Limit(10).Explain(ctx).String(),
		}
	}
	var us []float64
	for _, l := range set.engines {
		start := time.Now()
		direct := plans(l.raw, l.res)
		us = append(us, float64(time.Since(start))/1e3/float64(len(direct)))
		through := plans(l.e, l.res)
		for i := range direct {
			if direct[i] != through[i] {
				env.rep.problemf("read: %s plans differently through the tracing decorator:\n%s\nvs\n%s", l.name, direct[i], through[i])
			}
		}
	}
	env.rep.set("gremlin.plan_us", median(us), relSpread(us))
	return nil
}
