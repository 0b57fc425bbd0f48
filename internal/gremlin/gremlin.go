// Package gremlin implements a Gremlin-style traversal machine over the
// core.Engine contract: plan-first step pipelines (g.V().has(...).out())
// with terminal operations that respect context deadlines.
//
// It plays the role Apache TinkerPop plays in the paper — the
// database-independent connectivity layer through which every test query
// is expressed exactly once. Builder methods append declarative Step
// nodes to a logical plan (plan.go); a terminal operation lowers the
// plan, in the order it was written, to pull-based streams
// (compile.go), serving a leading property or label filter from the
// engine's index surface. Like the non-optimizing adapters the paper
// describes, lowered steps execute one element at a time against the
// engine API; Explain (explain.go) renders the same plan with
// estimated cardinalities.
package gremlin

import (
	"context"

	"repro/internal/core"
)

// ctxCheckEvery bounds how many elements flow between deadline checks.
const ctxCheckEvery = 64

// stream produces elements until ok is false; err aborts the traversal
// (e.g. core.ErrOutOfMemory from an engine, or ctx cancellation).
type stream func() (id core.ID, ok bool, err error)

func fromIter(it core.Iter[core.ID]) stream {
	return func() (core.ID, bool, error) {
		id, ok := it()
		return id, ok, nil
	}
}

// Kind of element flowing through a traversal.
type Kind uint8

// Element kinds.
const (
	KindVertex Kind = iota
	KindEdge
)

// Traversal is a lazy pipeline of elements (vertices or edges),
// represented as a logical plan until a terminal compiles it.
type Traversal struct {
	e     core.Engine
	steps []Step
}

// G roots traversals at an engine, mirroring the Gremlin "g".
type G struct{ e core.Engine }

// New returns a traversal source over the engine.
func New(e core.Engine) G { return G{e: e} }

func (g G) source(s Step) *Traversal {
	return &Traversal{e: g.e, steps: []Step{s}}
}

// V streams all vertices (g.V).
func (g G) V() *Traversal {
	return g.source(Step{Op: OpSourceV, Kind: KindVertex})
}

// E streams all edges (g.E).
func (g G) E() *Traversal {
	return g.source(Step{Op: OpSourceE, Kind: KindEdge})
}

// VID streams the single vertex with the given id (g.V(id), Q14).
func (g G) VID(id core.ID) *Traversal {
	return g.source(Step{Op: OpSourceVID, Kind: KindVertex, ID: id})
}

// EID streams the single edge with the given id (g.E(id), Q15).
func (g G) EID(id core.ID) *Traversal {
	return g.source(Step{Op: OpSourceEID, Kind: KindEdge, ID: id})
}

// VHas streams vertices with property name = v through the engine's
// search surface (g.V.has(name, value), Q11 — the step that benefits
// from attribute indexes in Figure 4(c)). It is sugar for
// V().Has(name, v), which lowering serves from the index surface.
func (g G) VHas(name string, v core.Value) *Traversal {
	return g.V().Has(name, v)
}

// EHas streams edges with property name = v (g.E.has(name, value), Q12).
func (g G) EHas(name string, v core.Value) *Traversal {
	return g.E().Has(name, v)
}

// EHasLabel streams edges with the given label (g.E.has('label', l),
// Q13).
func (g G) EHasLabel(label string) *Traversal {
	return g.E().HasLabel(label)
}

// kind reports whether the traversal currently carries vertices or
// edges: the kind its last step outputs.
func (t *Traversal) kind() Kind {
	if len(t.steps) == 0 {
		return KindVertex
	}
	return t.steps[len(t.steps)-1].Kind
}

// append extends the plan in place and returns the receiver: builder
// chains stay cheap (one slice append per step), and intermediate
// traversal values are not retained anywhere.
func (t *Traversal) append(s Step) *Traversal {
	t.steps = append(t.steps, s)
	return t
}

func (t *Traversal) expand(op Op, kind Kind, labels []string) *Traversal {
	return t.append(Step{Op: op, Kind: kind, Labels: labels})
}

// Out moves vertex→vertex over outgoing edges (v.out, Q23).
func (t *Traversal) Out(labels ...string) *Traversal {
	return t.expand(OpOut, KindVertex, labels)
}

// In moves vertex→vertex over incoming edges (v.in, Q22).
func (t *Traversal) In(labels ...string) *Traversal {
	return t.expand(OpIn, KindVertex, labels)
}

// Both moves vertex→vertex over all incident edges (v.both, Q24).
func (t *Traversal) Both(labels ...string) *Traversal {
	return t.expand(OpBoth, KindVertex, labels)
}

// OutE moves vertex→edge (v.outE, Q26).
func (t *Traversal) OutE(labels ...string) *Traversal {
	return t.expand(OpOutE, KindEdge, labels)
}

// InE moves vertex→edge (v.inE, Q25).
func (t *Traversal) InE(labels ...string) *Traversal {
	return t.expand(OpInE, KindEdge, labels)
}

// BothE moves vertex→edge (v.bothE, Q27).
func (t *Traversal) BothE(labels ...string) *Traversal {
	return t.expand(OpBothE, KindEdge, labels)
}

// OutV moves edge→source vertex.
func (t *Traversal) OutV() *Traversal {
	return t.append(Step{Op: OpOutV, Kind: KindVertex})
}

// InV moves edge→destination vertex.
func (t *Traversal) InV() *Traversal {
	return t.append(Step{Op: OpInV, Kind: KindVertex})
}

// Has filters elements on a property value (mid-pipeline .has step —
// a per-element probe unless lowering fuses it into the source).
func (t *Traversal) Has(name string, v core.Value) *Traversal {
	return t.append(Step{Op: OpHas, Kind: t.kind(), Name: name, Value: v})
}

// HasLabel filters edges on their label.
func (t *Traversal) HasLabel(label string) *Traversal {
	return t.append(Step{Op: OpHasLabel, Kind: t.kind(), Label: label})
}

// DegreeAtLeast keeps vertices with at least k incident edges in
// direction d (the filter of Q28–Q30). An engine failure such as
// core.ErrOutOfMemory from Degree aborts the traversal.
func (t *Traversal) DegreeAtLeast(d core.Direction, k int64) *Traversal {
	return t.append(Step{Op: OpDegree, Kind: t.kind(), Dir: d, K: k})
}

// Dedup suppresses repeated element ids (.dedup).
func (t *Traversal) Dedup() *Traversal {
	return t.append(Step{Op: OpDedup, Kind: t.kind()})
}

// Except drops elements contained in the set (.except(vs)).
func (t *Traversal) Except(set map[core.ID]struct{}) *Traversal {
	return t.append(Step{Op: OpExcept, Kind: t.kind(), Set: set})
}

// Store adds every passing element to the set (.store(vs)).
func (t *Traversal) Store(set map[core.ID]struct{}) *Traversal {
	return t.append(Step{Op: OpStore, Kind: t.kind(), Set: set})
}

// Limit stops the traversal after n elements (.limit). The compiled
// stream stops pulling its upstream — and therefore the engine
// iterators — as soon as the budget is spent.
func (t *Traversal) Limit(n int64) *Traversal {
	return t.append(Step{Op: OpLimit, Kind: t.kind(), N: n})
}

// Sample keeps a uniform random sample of up to n elements (reservoir
// sampling with a deterministic seed — the harness requires identical
// random choices across engines, per the paper's methodology). It is a
// barrier: the reservoir sees the whole upstream sequence before the
// first element is emitted.
func (t *Traversal) Sample(n int, seed int64) *Traversal {
	return t.append(Step{Op: OpSample, Kind: t.kind(), N: int64(n), Seed: seed})
}

// --- terminal operations (deadline-aware) ---

// drain lowers the plan and pulls every element through fn until fn
// returns false or the stream ends.
func (t *Traversal) drain(ctx context.Context, fn func(core.ID) bool) error {
	src := lower(t.e, t.steps)
	n := 0
	for {
		if n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return core.ErrTimeout
			}
		}
		n++
		id, ok, err := src()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !fn(id) {
			return nil
		}
	}
}

// Count drains the traversal and returns the element count (.count).
func (t *Traversal) Count(ctx context.Context) (int64, error) {
	var n int64
	err := t.drain(ctx, func(core.ID) bool { n++; return true })
	return n, err
}

// IDs drains the traversal into a slice.
func (t *Traversal) IDs(ctx context.Context) ([]core.ID, error) {
	var out []core.ID
	err := t.drain(ctx, func(id core.ID) bool { out = append(out, id); return true })
	return out, err
}

// DistinctLabels drains an edge traversal into its distinct labels
// (.label.dedup — Q10, Q25–Q27).
func (t *Traversal) DistinctLabels(ctx context.Context) ([]string, error) {
	seen := make(map[string]struct{})
	var out []string
	err := t.drain(ctx, func(id core.ID) bool {
		if l, err := t.e.EdgeLabel(id); err == nil {
			if _, dup := seen[l]; !dup {
				seen[l] = struct{}{}
				out = append(out, l)
			}
		}
		return true
	})
	return out, err
}

// Values drains the traversal into one property value per element,
// skipping elements without the property (.values(name)). The element
// kind is derived from the plan's output step.
func (t *Traversal) Values(ctx context.Context, name string) ([]core.Value, error) {
	kind := t.kind()
	var out []core.Value
	err := t.drain(ctx, func(id core.ID) bool {
		var v core.Value
		var ok bool
		if kind == KindVertex {
			v, ok = t.e.VertexProp(id, name)
		} else {
			v, ok = t.e.EdgeProp(id, name)
		}
		if ok {
			out = append(out, v)
		}
		return true
	})
	return out, err
}
