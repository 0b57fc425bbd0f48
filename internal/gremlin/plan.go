package gremlin

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Op identifies one logical step kind of the traversal plan. Builder
// methods append Step values; nothing executes until a terminal
// lowers the plan (see compile.go), which is what makes a query
// explainable before any element flows.
type Op uint8

// Plan step operators.
const (
	// Sources (exactly one, always first).
	OpSourceV   Op = iota // all vertices (g.V)
	OpSourceE             // all edges (g.E)
	OpSourceVID           // one vertex by id (g.V(id))
	OpSourceEID           // one edge by id (g.E(id))

	// Filters — per-element predicates; a run of them lowers to one
	// loop.
	OpHas      // property equality
	OpHasLabel // edge label equality
	OpDegree   // degree-at-least threshold
	OpExcept   // drop members of a set

	// Expansions — change the element stream.
	OpOut   // vertex → vertex, outgoing
	OpIn    // vertex → vertex, incoming
	OpBoth  // vertex → vertex, both
	OpOutE  // vertex → edge, outgoing
	OpInE   // vertex → edge, incoming
	OpBothE // vertex → edge, both
	OpOutV  // edge → source vertex
	OpInV   // edge → destination vertex

	// Stream shapers.
	OpDedup  // first occurrence of each id
	OpStore  // add passing elements to a set
	OpLimit  // stop after n elements
	OpSample // deterministic reservoir sample
)

// String returns the operator's Gremlin-flavoured name.
func (op Op) String() string {
	switch op {
	case OpSourceV:
		return "V()"
	case OpSourceE:
		return "E()"
	case OpSourceVID:
		return "V(id)"
	case OpSourceEID:
		return "E(id)"
	case OpHas:
		return "has"
	case OpHasLabel:
		return "hasLabel"
	case OpDegree:
		return "degreeAtLeast"
	case OpExcept:
		return "except"
	case OpOut:
		return "out"
	case OpIn:
		return "in"
	case OpBoth:
		return "both"
	case OpOutE:
		return "outE"
	case OpInE:
		return "inE"
	case OpBothE:
		return "bothE"
	case OpOutV:
		return "outV"
	case OpInV:
		return "inV"
	case OpDedup:
		return "dedup"
	case OpStore:
		return "store"
	case OpLimit:
		return "limit"
	case OpSample:
		return "sample"
	}
	return "unknown"
}

// Step is one declarative node of the logical plan. Only the fields
// its Op consumes are set.
type Step struct {
	Op   Op
	Kind Kind // element kind this step OUTPUTS (and, for filters, filters)

	Name  string     // Has: property name
	Value core.Value // Has: property value
	Label string     // HasLabel: edge label

	Labels []string       // expansions: label restriction
	Dir    core.Direction // Degree: direction
	K      int64          // Degree: threshold
	N      int64          // Limit / Sample: element budget
	Seed   int64          // Sample: PRNG seed
	ID     core.ID        // SourceVID / SourceEID

	Set map[core.ID]struct{} // Except / Store set
}

// label renders the step with its arguments, e.g. `has(name=x)`.
func (s Step) label() string {
	switch s.Op {
	case OpHas:
		return fmt.Sprintf("has(%s=%s)", s.Name, s.Value)
	case OpHasLabel:
		return fmt.Sprintf("hasLabel(%s)", s.Label)
	case OpDegree:
		return fmt.Sprintf("degreeAtLeast(%s,%d)", s.Dir, s.K)
	case OpExcept:
		return fmt.Sprintf("except(|set|=%d)", len(s.Set))
	case OpOut, OpIn, OpBoth, OpOutE, OpInE, OpBothE:
		if len(s.Labels) > 0 {
			return fmt.Sprintf("%s(%s)", s.Op, strings.Join(s.Labels, ","))
		}
		return s.Op.String() + "()"
	case OpLimit:
		return fmt.Sprintf("limit(%d)", s.N)
	case OpSample:
		return fmt.Sprintf("sample(%d)", s.N)
	case OpSourceVID, OpSourceEID:
		return s.Op.String()
	case OpSourceV, OpSourceE:
		return s.Op.String()
	default:
		return s.Op.String() + "()"
	}
}

// isFilter reports whether the step is a per-element predicate that
// passes or drops each element without changing it.
func (s Step) isFilter() bool {
	switch s.Op {
	case OpHas, OpHasLabel, OpDegree, OpExcept:
		return true
	}
	return false
}

// isSource reports whether the step roots the plan.
func (s Step) isSource() bool {
	switch s.Op {
	case OpSourceV, OpSourceE, OpSourceVID, OpSourceEID:
		return true
	}
	return false
}
