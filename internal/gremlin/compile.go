package gremlin

import "repro/internal/core"

// lower translates the plan, in the order it was written, into a
// chain of pull-based streams: a leading index-served filter fuses
// into the source, and each maximal run of filter steps into a single
// loop. Each stage pulls from its upstream only on demand, so a
// downstream Limit that stops pulling stops the whole chain —
// including the engine iterators inside the source. The plan itself
// is never mutated, so lowering is repeatable and Explain sees the
// plan that executes. Every pull from an engine iterator goes through
// d, so the deadline bounds the work done, not the elements emitted.
func lower(e core.Engine, steps []step, d *deadline) stream {
	if len(steps) == 0 || !steps[0].isSource() {
		return func() (core.ID, bool, error) { return core.NoID, false, nil }
	}
	s, i := lowerSource(e, steps, d)
	for i < len(steps) {
		st := steps[i]
		if st.isFilter() {
			// Fuse the whole filter run into one loop.
			j := i + 1
			for j < len(steps) && steps[j].isFilter() {
				j++
			}
			s = filterStage(e, s, steps[i:j])
			i = j
			continue
		}
		switch st.Op {
		case opOut, opIn, opBoth:
			s = flatMapStage(s, neighborExpand(e, st), d)
		case opOutE, opInE, opBothE:
			s = flatMapStage(s, incidentExpand(e, st), d)
		case opOutV:
			s = flatMapStage(s, endExpand(e, false), d)
		case opInV:
			s = flatMapStage(s, endExpand(e, true), d)
		case opDedup:
			s = dedupStage(s)
		case opStore:
			s = storeStage(s, st.Set)
		case opLimit:
			s = limitStage(s, st.N)
		case opSample:
			s = sampleStage(s, st.N, st.Seed)
		}
		i++
	}
	return s
}

// lowerSource emits the plan's source stream and returns the index of
// the first unconsumed step. A Has/HasLabel directly after V()/E() is
// served by the engine's index surface (VerticesByProp / EdgesByProp /
// EdgesByLabel) — the paper's source-step fast path, Q11–Q13. Fusion
// preserves the element sequence because every engine's ByProp/ByLabel
// surface yields ids in the same ascending order its full scan does.
func lowerSource(e core.Engine, steps []step, d *deadline) (stream, int) {
	src := steps[0]
	if fusedSource(steps) {
		next := steps[1]
		switch {
		case next.Op == opHasLabel:
			return d.fromIter(e.EdgesByLabel(next.Label)), 2
		case src.Op == opSourceV:
			return d.fromIter(e.VerticesByProp(next.Name, next.Value)), 2
		default:
			return d.fromIter(e.EdgesByProp(next.Name, next.Value)), 2
		}
	}
	switch src.Op {
	case opSourceV:
		return d.fromIter(e.Vertices()), 1
	case opSourceE:
		return d.fromIter(e.Edges()), 1
	case opSourceVID:
		return d.one(src.ID, e.HasVertex(src.ID)), 1
	default: // opSourceEID
		return d.one(src.ID, e.HasEdge(src.ID)), 1
	}
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

// predicate compiles one filter step to its per-element test: a
// property probe, label fetch, degree count or set lookup per element.
// Engine failures (core.ErrOutOfMemory from Degree on Q28–Q31) abort
// the traversal.
func predicate(e core.Engine, s step) func(core.ID) (bool, error) {
	switch s.Op {
	case opHas:
		if s.Kind == kindVertex {
			return func(id core.ID) (bool, error) {
				got, ok := e.VertexProp(id, s.Name)
				return ok && got.Compare(s.Value) == 0, nil
			}
		}
		return func(id core.ID) (bool, error) {
			got, ok := e.EdgeProp(id, s.Name)
			return ok && got.Compare(s.Value) == 0, nil
		}
	case opHasLabel:
		return func(id core.ID) (bool, error) {
			l, err := e.EdgeLabel(id)
			if err != nil {
				return false, nil
			}
			return l == s.Label, nil
		}
	case opDegree:
		return func(id core.ID) (bool, error) {
			deg, err := e.Degree(id, s.Dir)
			if err != nil {
				return false, err
			}
			return deg >= s.K, nil
		}
	default: // opExcept
		return func(id core.ID) (bool, error) {
			_, in := s.Set[id]
			return !in, nil
		}
	}
}

// filterStage lowers a run of filter steps into a single loop: each
// element is tested against the conjunction in plan order, with no
// intermediate stream frames between the predicates.
func filterStage(e core.Engine, src stream, run []step) stream {
	preds := make([]func(core.ID) (bool, error), len(run))
	for i, s := range run {
		preds[i] = predicate(e, s)
	}
	return func() (core.ID, bool, error) {
	next:
		for {
			id, ok, err := src()
			if err != nil || !ok {
				return core.NoID, false, err
			}
			for _, p := range preds {
				hit, err := p(id)
				if err != nil {
					return core.NoID, false, err
				}
				if !hit {
					continue next
				}
			}
			return id, true, nil
		}
	}
}

// flatMapStage expands each incoming element through expand, counting
// each pull from an expansion against the deadline.
func flatMapStage(src stream, expand func(core.ID) core.Iter[core.ID], d *deadline) stream {
	var cur core.Iter[core.ID]
	return func() (core.ID, bool, error) {
		for {
			if cur != nil {
				if err := d.tick(); err != nil {
					return core.NoID, false, err
				}
				if id, ok := cur(); ok {
					return id, true, nil
				}
				cur = nil
			}
			id, ok, err := src()
			if err != nil || !ok {
				return core.NoID, false, err
			}
			cur = expand(id)
		}
	}
}

func neighborExpand(e core.Engine, s step) func(core.ID) core.Iter[core.ID] {
	var d core.Direction
	switch s.Op {
	case opOut:
		d = core.DirOut
	case opIn:
		d = core.DirIn
	default:
		d = core.DirBoth
	}
	return func(id core.ID) core.Iter[core.ID] {
		return e.Neighbors(id, d, s.Labels...)
	}
}

func incidentExpand(e core.Engine, s step) func(core.ID) core.Iter[core.ID] {
	var d core.Direction
	switch s.Op {
	case opOutE:
		d = core.DirOut
	case opInE:
		d = core.DirIn
	default:
		d = core.DirBoth
	}
	return func(id core.ID) core.Iter[core.ID] {
		return e.IncidentEdges(id, d, s.Labels...)
	}
}

func endExpand(e core.Engine, in bool) func(core.ID) core.Iter[core.ID] {
	return func(id core.ID) core.Iter[core.ID] {
		src, dst, err := e.EdgeEnds(id)
		if err != nil {
			return core.EmptyIter[core.ID]()
		}
		if in {
			return core.SliceIter([]core.ID{dst})
		}
		return core.SliceIter([]core.ID{src})
	}
}

func dedupStage(src stream) stream {
	seen := make(map[core.ID]struct{})
	return func() (core.ID, bool, error) {
		for {
			id, ok, err := src()
			if err != nil || !ok {
				return core.NoID, false, err
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			return id, true, nil
		}
	}
}

func storeStage(src stream, set map[core.ID]struct{}) stream {
	return func() (core.ID, bool, error) {
		id, ok, err := src()
		if err != nil || !ok {
			return core.NoID, false, err
		}
		set[id] = struct{}{}
		return id, true, nil
	}
}

func limitStage(src stream, n int64) stream {
	var seen int64
	return func() (core.ID, bool, error) {
		if seen >= n {
			return core.NoID, false, nil
		}
		id, ok, err := src()
		if err != nil || !ok {
			return core.NoID, false, err
		}
		seen++
		return id, true, nil
	}
}

// sampleStage keeps a uniform random sample of up to n elements
// (reservoir sampling with a deterministic seed — the harness requires
// identical random choices across engines, per the paper's
// methodology). The upstream is drained on the first pull.
func sampleStage(src stream, n, seed int64) stream {
	var inner core.Iter[core.ID]
	return func() (core.ID, bool, error) {
		if inner == nil {
			reservoir := make([]core.ID, 0, n)
			rng := splitMix(uint64(seed))
			count := 0
			for {
				id, ok, err := src()
				if err != nil {
					return core.NoID, false, err
				}
				if !ok {
					break
				}
				count++
				if int64(len(reservoir)) < n {
					reservoir = append(reservoir, id)
					continue
				}
				if j := int64(rng() % uint64(count)); j < n {
					reservoir[j] = id
				}
			}
			inner = core.SliceIter(reservoir)
		}
		id, ok := inner()
		return id, ok, nil
	}
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
