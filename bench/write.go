package main

import (
	"context"
	"fmt"
	"time"
)

// runWrite is the write workload: a seeded stream of the twelve
// mutating queries on frb-s. A pass loads a fresh engine (untimed),
// runs the stream (timed) and checks the vertex and edge totals the
// stream must have left behind. The queries call the engine directly —
// gremlin takes no part, so a gremlin change must not move this
// workload.
func runWrite(env *env) error {
	set, err := env.setupLoaded("frb-s", env.size.writeScale, engineNames, nil)
	if err != nil {
		return err
	}
	env.reportSpaceOf(set)
	stream, err := writeStreamFor(set.ds.g, env.seed, env.size.writeCycles)
	if err != nil {
		return err
	}
	env.rep.notef("write: frb-s@%g %d V / %d E, stream of %d cycles × %d operations (deleted vertices have degree ≤ %d)",
		env.size.writeScale, set.ds.g.NumVertices(), set.ds.g.NumEdges(), len(stream.want), stream.perCycle, stream.degreeCap)
	set.close()

	pass := func(engine string, traced bool, lat []time.Duration) (passResult, error) {
		// The stream runs once per load, and only the engine it runs on
		// is alive meanwhile.
		l, err := env.fresh(engine, set.ds.g)
		if err != nil {
			return passResult{}, err
		}
		defer l.raw.Close()
		env.settle()
		e := l.raw
		if traced {
			e = l.e
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		var r passResult
		start := env.clk.now()
		prev := start
		for j := range stream.ops {
			op := &stream.ops[j]
			var end func()
			if traced {
				end = env.tr.begin(op.q.Name, int32(j))
			}
			err := op.run(ctx, e, l.res)
			if traced {
				end()
			}
			if err != nil {
				return r, fmt.Errorf("%s %s (operation %d): %w", engine, op.q.Name, j, err)
			}
			// One clock reading per operation: each ends where the next
			// begins.
			now := env.clk.now()
			lat[j] = now - prev
			prev = now
			r.ops++
		}
		r.wall = prev - start
		v, verr := l.raw.CountVertices()
		n, eerr := l.raw.CountEdges()
		if verr != nil || eerr != nil {
			return r, fmt.Errorf("%s: count after stream: %v %v", engine, verr, eerr)
		}
		if want := stream.want[len(stream.want)-1]; v != want.v || n != want.e {
			env.rep.problemf("write: %s holds %d vertices / %d edges after the stream, which leaves %d / %d", engine, v, n, want.v, want.e)
		}
		if traced && engine == durableEngine {
			env.titanStats(l)
		}
		return r, nil
	}
	if err := env.timedRounds("write", len(stream.ops), pass); err != nil {
		return err
	}
	if env.tr != nil {
		env.writeKernels(set.ds.g)
	}
	return nil
}
