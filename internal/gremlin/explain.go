package gremlin

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// PlanStep is one rendered step of an explained plan.
type PlanStep struct {
	// Label is the step with its arguments, e.g. "has(name=x)"; a
	// source fused with an index-served filter renders as one step with
	// an "[index]" marker.
	Label string
	// Est is the estimated number of elements the step emits, or -1
	// when the engine carries no planner statistics.
	Est int64
}

// Plan is the ordered execution plan a terminal would run, produced by
// Traversal.Explain without executing anything.
type Plan struct {
	Steps []PlanStep
	// HasStats records whether snapshot statistics informed the
	// estimates; false means every Est is -1.
	HasStats bool
}

// Explain returns the plan a terminal would run — with the same source
// fusion — annotated with estimated cardinalities, without executing
// it. The rendering is deterministic: identical plan and dataset
// produce byte-identical output across runs and processes. Explain
// calls no engine iterator, so it ignores ctx.
func (t *Traversal) Explain(ctx context.Context) *Plan {
	steps := t.steps
	stats := engineStats(t.e)
	p := &Plan{HasStats: stats != nil}

	est := newEstimator(stats)
	i := 0
	if fusedSource(steps) {
		est.apply(steps[0])
		est.apply(steps[1])
		p.Steps = append(p.Steps, PlanStep{
			Label: steps[0].label() + "." + steps[1].label() + " [index]",
			Est:   est.rows(),
		})
		i = 2
	}
	for ; i < len(steps); i++ {
		est.apply(steps[i])
		p.Steps = append(p.Steps, PlanStep{Label: steps[i].label(), Est: est.rows()})
	}
	return p
}

// String renders the plan as a fixed-width table, one line per step.
func (p *Plan) String() string {
	var b strings.Builder
	src := "no stats"
	if p.HasStats {
		src = "snapshot stats"
	}
	fmt.Fprintf(&b, "plan (%s)\n", src)
	width := 0
	for _, s := range p.Steps {
		if len(s.Label) > width {
			width = len(s.Label)
		}
	}
	for i, s := range p.Steps {
		est := "?"
		if s.Est >= 0 {
			est = fmt.Sprintf("~%d", s.Est)
		}
		fmt.Fprintf(&b, "  %2d  %-*s  %s\n", i+1, width, s.Label, est)
	}
	return b.String()
}

// estimator threads an estimated row count through the plan. With no
// statistics every estimate is unknown; estimates never influence
// results, only the rendered plan.
type estimator struct {
	stats *core.PlanStats
	cur   float64
}

func newEstimator(stats *core.PlanStats) *estimator {
	return &estimator{stats: stats, cur: -1}
}

// rows returns the current estimate rounded to whole elements.
func (e *estimator) rows() int64 {
	if e.cur < 0 {
		return -1
	}
	return int64(math.Round(e.cur))
}

func (e *estimator) apply(s Step) {
	if e.stats == nil {
		// Singleton sources are exact even without statistics.
		if s.Op == OpSourceVID || s.Op == OpSourceEID {
			e.cur = 1
		} else {
			e.cur = -1
		}
		return
	}
	switch s.Op {
	case OpSourceV:
		e.cur = float64(e.stats.V)
	case OpSourceE:
		e.cur = float64(e.stats.E)
	case OpSourceVID, OpSourceEID:
		e.cur = 1
	case OpHas, OpHasLabel, OpDegree, OpExcept:
		e.cur *= selectivity(s, e.stats)
	case OpOut:
		e.cur *= e.stats.AvgDegree(core.DirOut, s.Labels)
	case OpIn:
		e.cur *= e.stats.AvgDegree(core.DirIn, s.Labels)
	case OpBoth:
		e.cur *= e.stats.AvgDegree(core.DirBoth, s.Labels)
	case OpOutE:
		e.cur *= e.stats.AvgDegree(core.DirOut, s.Labels)
	case OpInE:
		e.cur *= e.stats.AvgDegree(core.DirIn, s.Labels)
	case OpBothE:
		e.cur *= e.stats.AvgDegree(core.DirBoth, s.Labels)
	case OpOutV, OpInV, OpStore:
		// Row count unchanged.
	case OpDedup:
		pool := float64(e.stats.V)
		if s.Kind == KindEdge {
			pool = float64(e.stats.E)
		}
		e.cur = math.Min(e.cur, pool)
	case OpLimit, OpSample:
		e.cur = math.Min(e.cur, float64(s.N))
	}
}

// engineStats returns the engine's load-time planner statistics, or nil
// when the engine has none.
func engineStats(e core.Engine) *core.PlanStats {
	if p, ok := e.(core.PlanStatsProvider); ok {
		return p.PlanStats()
	}
	return nil
}

// selectivity estimates the fraction of elements a filter passes.
// Label and degree predicates read the snapshot statistics; property
// equality has no per-value statistics (the repo keeps no histogram
// machinery, by design) and uses a fixed heuristic.
func selectivity(s Step, stats *core.PlanStats) float64 {
	switch s.Op {
	case OpHasLabel:
		return stats.LabelSelectivity(s.Label)
	case OpHas:
		return 0.25
	case OpDegree:
		if s.Kind == KindVertex {
			return stats.DegreeAtLeastFrac(s.Dir, s.K)
		}
		return 0.5
	case OpExcept:
		return 0.9
	}
	return 1
}
