package gremlin

import (
	"context"

	"repro/internal/core"
)

// ctxCheckEvery bounds how many engine pulls happen between deadline
// checks.
const ctxCheckEvery = 64

// sink receives the elements of a traversal one at a time; it returns
// false to stop everything upstream of it.
type sink func(core.ID) bool

// run is the execution state of one traversal, BFS or ShortestPath.
// It counts the elements pulled from the engine, in the source and in
// every expansion, and checks ctx once per ctxCheckEvery of them.
// Counting pulls rather than emitted elements bounds a filter or dedup
// that rejects nearly everything it sees. The first failure (a
// timeout, or an engine error such as core.ErrOutOfMemory from Degree)
// is kept in err and stops the traversal.
type run struct {
	e     core.Engine
	ctx   context.Context
	pulls int
	err   error
}

// tick is called before each pull from an engine iterator; it reports
// false once the deadline has passed.
func (r *run) tick() bool {
	if r.pulls%ctxCheckEvery == 0 && r.ctx.Err() != nil {
		r.err = core.ErrTimeout
		return false
	}
	r.pulls++
	return true
}

// each pushes the elements of an engine iterator into out. It reports
// true when the iterator ran out, and false when out stopped it or
// the deadline passed.
func (r *run) each(it core.Iter[core.ID], out sink) bool {
	for r.tick() {
		id, ok := it()
		if !ok {
			return true
		}
		if !out(id) {
			return false
		}
	}
	return false
}

// exec lowers the plan to a chain of push sinks, built last step first
// so each sink holds the one after it, and pushes the source through
// it into out. A leading index-served filter fuses into the source.
// An expansion pushes each element's engine iterator through each; a
// filter drops the element or passes it on; a Limit stops its upstream
// by returning false after its n-th element, so the engine iterators
// inside the source stop too. A Sample is a barrier: the steps before
// it push into its reservoir, and once they finish the reservoir
// pushes into the steps after it. The plan itself is never mutated,
// so lowering is repeatable and Explain sees the plan that executes.
func (r *run) exec(steps []step, out sink) {
	if len(steps) == 0 || !steps[0].isSource() {
		return
	}
	it, present, first := r.source(steps)
	var feeds []func() // reservoir feeds, last Sample first
	for i := len(steps) - 1; i >= first; i-- {
		st, next := steps[i], out
		switch st.Op {
		case opHas, opHasLabel, opDegree, opExcept:
			out = r.filter(st, next)
		case opOut, opIn, opBoth:
			dir, labels := direction(st.Op), st.Labels
			out = func(id core.ID) bool { return r.each(r.e.Neighbors(id, dir, labels...), next) }
		case opOutE, opInE, opBothE:
			dir, labels := direction(st.Op), st.Labels
			out = func(id core.ID) bool { return r.each(r.e.IncidentEdges(id, dir, labels...), next) }
		case opOutV, opInV:
			in := st.Op == opInV
			out = func(id core.ID) bool {
				src, dst, err := r.e.EdgeEnds(id)
				if err != nil {
					return true
				}
				if in {
					return next(dst)
				}
				return next(src)
			}
		case opDedup:
			seen := make(map[core.ID]struct{})
			out = func(id core.ID) bool {
				if _, dup := seen[id]; dup {
					return true
				}
				seen[id] = struct{}{}
				return next(id)
			}
		case opStore:
			set := st.Set
			out = func(id core.ID) bool {
				set[id] = struct{}{}
				return next(id)
			}
		case opLimit:
			if st.N <= 0 {
				return // nothing upstream of an empty Limit is pulled
			}
			left := st.N
			out = func(id core.ID) bool {
				left--
				return next(id) && left > 0
			}
		case opSample:
			var feed func()
			out, feed = sample(st.N, st.Seed, next)
			feeds = append(feeds, feed)
		}
	}
	if it != nil {
		r.each(it, out)
	} else if r.tick() && present {
		out(steps[0].ID)
	}
	for i := len(feeds) - 1; i >= 0 && r.err == nil; i-- {
		feeds[i]()
	}
}

// source opens the plan's source: an engine iterator, or for g.V(id)
// and g.E(id) whether the engine holds that element. first is the
// index of the first step it leaves to the sinks. A Has/HasLabel
// directly after V()/E() is served by the engine's index surface
// (VerticesByProp / EdgesByProp / EdgesByLabel) — the paper's
// source-step fast path, Q11–Q13. Fusion preserves the element
// sequence because every engine's ByProp/ByLabel surface yields ids in
// the same ascending order its full scan does.
func (r *run) source(steps []step) (it core.Iter[core.ID], present bool, first int) {
	src, e, fused := steps[0], r.e, fusedSource(steps)
	first = 1
	switch {
	case fused && steps[1].Op == opHasLabel:
		it, first = e.EdgesByLabel(steps[1].Label), 2
	case fused && src.Op == opSourceV:
		it, first = e.VerticesByProp(steps[1].Name, steps[1].Value), 2
	case fused:
		it, first = e.EdgesByProp(steps[1].Name, steps[1].Value), 2
	case src.Op == opSourceV:
		it = e.Vertices()
	case src.Op == opSourceE:
		it = e.Edges()
	case src.Op == opSourceVID:
		present = e.HasVertex(src.ID)
	default: // opSourceEID
		present = e.HasEdge(src.ID)
	}
	return it, present, first
}

// fusedSource reports whether lowering serves the plan's second step
// from the engine index surface (shared with Explain so the rendered
// plan matches what executes).
func fusedSource(steps []step) bool {
	if len(steps) < 2 {
		return false
	}
	src, next := steps[0].Op, steps[1].Op
	return src == opSourceV && next == opHas ||
		src == opSourceE && (next == opHas || next == opHasLabel)
}

// direction maps an expansion to the engine direction it follows.
func direction(op opcode) core.Direction {
	switch op {
	case opOut, opOutE:
		return core.DirOut
	case opIn, opInE:
		return core.DirIn
	}
	return core.DirBoth
}

// filter lowers one filter step to a sink that tests each element —
// a property probe, label fetch, degree count or set lookup — and
// passes the ones that hold into next. An engine failure
// (core.ErrOutOfMemory from Degree on Q28–Q31) aborts the traversal.
func (r *run) filter(s step, next sink) sink {
	e := r.e
	switch s.Op {
	case opHas:
		if s.Kind == kindVertex {
			return func(id core.ID) bool {
				got, ok := e.VertexProp(id, s.Name)
				return !ok || got.Compare(s.Value) != 0 || next(id)
			}
		}
		return func(id core.ID) bool {
			got, ok := e.EdgeProp(id, s.Name)
			return !ok || got.Compare(s.Value) != 0 || next(id)
		}
	case opHasLabel:
		return func(id core.ID) bool {
			l, err := e.EdgeLabel(id)
			return err != nil || l != s.Label || next(id)
		}
	case opDegree:
		return func(id core.ID) bool {
			deg, err := e.Degree(id, s.Dir)
			if err != nil {
				r.err = err
				return false
			}
			return deg < s.K || next(id)
		}
	default: // opExcept
		return func(id core.ID) bool {
			_, in := s.Set[id]
			return in || next(id)
		}
	}
}

// sample keeps a uniform random sample of up to n elements (reservoir
// sampling with a deterministic seed — the harness requires identical
// random choices across engines, per the paper's methodology). add
// fills the reservoir; feed then pushes it into next.
func sample(n, seed int64, next sink) (add sink, feed func()) {
	reservoir := make([]core.ID, 0, n)
	rng := splitMix(uint64(seed))
	count := 0
	add = func(id core.ID) bool {
		count++
		if int64(len(reservoir)) < n {
			reservoir = append(reservoir, id)
		} else if j := int64(rng() % uint64(count)); j < n {
			reservoir[j] = id
		}
		return true
	}
	feed = func() {
		for _, id := range reservoir {
			if !next(id) {
				return
			}
		}
	}
	return add, feed
}

// splitMix returns a deterministic PRNG closure.
func splitMix(s uint64) func() uint64 {
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
