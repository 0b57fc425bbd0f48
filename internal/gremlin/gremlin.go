// Package gremlin implements a Gremlin-style traversal machine over the
// core.Engine contract: plan-first step pipelines (g.V().has(...).out())
// with terminal operations that respect context deadlines.
//
// It plays the role Apache TinkerPop plays in the paper — the
// database-independent connectivity layer through which every test query
// is expressed exactly once. Builder methods append declarative step
// nodes to a logical plan (plan.go); a terminal operation lowers the
// plan, in the order it was written, to a chain of push sinks
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

// elemKind is the kind of element flowing through a traversal.
type elemKind uint8

// Element kinds.
const (
	kindVertex elemKind = iota
	kindEdge
)

// Traversal is a lazy pipeline of elements (vertices or edges),
// represented as a logical plan until a terminal compiles it.
type Traversal struct {
	e     core.Engine
	steps []step
}

// G roots traversals at an engine, mirroring the Gremlin "g".
type G struct{ e core.Engine }

// New returns a traversal source over the engine.
func New(e core.Engine) G { return G{e: e} }

func (g G) source(s step) *Traversal {
	return &Traversal{e: g.e, steps: []step{s}}
}

// V streams all vertices (g.V).
func (g G) V() *Traversal {
	return g.source(step{Op: opSourceV, Kind: kindVertex})
}

// E streams all edges (g.E).
func (g G) E() *Traversal {
	return g.source(step{Op: opSourceE, Kind: kindEdge})
}

// VID streams the single vertex with the given id (g.V(id), Q14).
func (g G) VID(id core.ID) *Traversal {
	return g.source(step{Op: opSourceVID, Kind: kindVertex, ID: id})
}

// EID streams the single edge with the given id (g.E(id), Q15).
func (g G) EID(id core.ID) *Traversal {
	return g.source(step{Op: opSourceEID, Kind: kindEdge, ID: id})
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
func (t *Traversal) kind() elemKind {
	if len(t.steps) == 0 {
		return kindVertex
	}
	return t.steps[len(t.steps)-1].Kind
}

// append extends the plan in place and returns the receiver: builder
// chains stay cheap (one slice append per step), and intermediate
// traversal values are not retained anywhere.
func (t *Traversal) append(s step) *Traversal {
	t.steps = append(t.steps, s)
	return t
}

func (t *Traversal) expand(op opcode, kind elemKind, labels []string) *Traversal {
	return t.append(step{Op: op, Kind: kind, Labels: labels})
}

// Out moves vertex→vertex over outgoing edges (v.out, Q23).
func (t *Traversal) Out(labels ...string) *Traversal {
	return t.expand(opOut, kindVertex, labels)
}

// In moves vertex→vertex over incoming edges (v.in, Q22).
func (t *Traversal) In(labels ...string) *Traversal {
	return t.expand(opIn, kindVertex, labels)
}

// Both moves vertex→vertex over all incident edges (v.both, Q24).
func (t *Traversal) Both(labels ...string) *Traversal {
	return t.expand(opBoth, kindVertex, labels)
}

// OutE moves vertex→edge (v.outE, Q26).
func (t *Traversal) OutE(labels ...string) *Traversal {
	return t.expand(opOutE, kindEdge, labels)
}

// InE moves vertex→edge (v.inE, Q25).
func (t *Traversal) InE(labels ...string) *Traversal {
	return t.expand(opInE, kindEdge, labels)
}

// BothE moves vertex→edge (v.bothE, Q27).
func (t *Traversal) BothE(labels ...string) *Traversal {
	return t.expand(opBothE, kindEdge, labels)
}

// OutV moves edge→source vertex.
func (t *Traversal) OutV() *Traversal {
	return t.append(step{Op: opOutV, Kind: kindVertex})
}

// InV moves edge→destination vertex.
func (t *Traversal) InV() *Traversal {
	return t.append(step{Op: opInV, Kind: kindVertex})
}

// Has filters elements on a property value (mid-pipeline .has step —
// a per-element probe unless lowering fuses it into the source).
func (t *Traversal) Has(name string, v core.Value) *Traversal {
	return t.append(step{Op: opHas, Kind: t.kind(), Name: name, Value: v})
}

// HasLabel filters edges on their label.
func (t *Traversal) HasLabel(label string) *Traversal {
	return t.append(step{Op: opHasLabel, Kind: t.kind(), Label: label})
}

// DegreeAtLeast keeps vertices with at least k incident edges in
// direction d (the filter of Q28–Q30). An engine failure such as
// core.ErrOutOfMemory from Degree aborts the traversal.
func (t *Traversal) DegreeAtLeast(d core.Direction, k int64) *Traversal {
	return t.append(step{Op: opDegree, Kind: t.kind(), Dir: d, K: k})
}

// Dedup suppresses repeated element ids (.dedup).
func (t *Traversal) Dedup() *Traversal {
	return t.append(step{Op: opDedup, Kind: t.kind()})
}

// Except drops elements contained in the set (.except(vs)).
func (t *Traversal) Except(set map[core.ID]struct{}) *Traversal {
	return t.append(step{Op: opExcept, Kind: t.kind(), Set: set})
}

// Limit stops the traversal after n elements (.limit). Its sink
// returns false as soon as the budget is spent, which stops its
// upstream — and therefore the engine iterators — from pulling more.
func (t *Traversal) Limit(n int64) *Traversal {
	return t.append(step{Op: opLimit, Kind: t.kind(), N: n})
}

// Sample keeps a uniform random sample of up to n elements (reservoir
// sampling with a deterministic seed — the harness requires identical
// random choices across engines, per the paper's methodology). It is a
// barrier: the reservoir sees the whole upstream sequence before the
// first element is emitted.
func (t *Traversal) Sample(n int, seed int64) *Traversal {
	return t.append(step{Op: opSample, Kind: t.kind(), N: int64(n), Seed: seed})
}

// --- terminal operations (deadline-aware) ---

// drain lowers the plan and pushes every element into fn until fn
// returns false, the plan runs out, or ctx expires (core.ErrTimeout).
func (t *Traversal) drain(ctx context.Context, fn func(core.ID) bool) error {
	r := &run{e: t.e, ctx: ctx}
	r.exec(t.steps, fn)
	return r.err
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
		if kind == kindVertex {
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
