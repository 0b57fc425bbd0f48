package gremlin

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// opcode identifies one logical step kind of the traversal plan. Builder
// methods append step values; nothing executes until a terminal
// lowers the plan (see compile.go), which is what makes a query
// explainable before any element flows.
type opcode uint8

// Plan step operators.
const (
	// Sources (exactly one, always first).
	opSourceV   opcode = iota // all vertices (g.V)
	opSourceE                 // all edges (g.E)
	opSourceVID               // one vertex by id (g.V(id))
	opSourceEID               // one edge by id (g.E(id))

	// Filters — per-element predicates that drop or pass each element.
	opHas      // property equality
	opHasLabel // edge label equality
	opDegree   // degree-at-least threshold
	opExcept   // drop members of a set

	// Expansions — change the element stream.
	opOut   // vertex → vertex, outgoing
	opIn    // vertex → vertex, incoming
	opBoth  // vertex → vertex, both
	opOutE  // vertex → edge, outgoing
	opInE   // vertex → edge, incoming
	opBothE // vertex → edge, both
	opOutV  // edge → source vertex
	opInV   // edge → destination vertex

	// Stream shapers.
	opDedup  // first occurrence of each id
	opLimit  // stop after n elements
	opSample // deterministic reservoir sample
)

// String returns the operator's Gremlin-flavoured name.
func (op opcode) String() string {
	switch op {
	case opSourceV:
		return "V()"
	case opSourceE:
		return "E()"
	case opSourceVID:
		return "V(id)"
	case opSourceEID:
		return "E(id)"
	case opHas:
		return "has"
	case opHasLabel:
		return "hasLabel"
	case opDegree:
		return "degreeAtLeast"
	case opExcept:
		return "except"
	case opOut:
		return "out"
	case opIn:
		return "in"
	case opBoth:
		return "both"
	case opOutE:
		return "outE"
	case opInE:
		return "inE"
	case opBothE:
		return "bothE"
	case opOutV:
		return "outV"
	case opInV:
		return "inV"
	case opDedup:
		return "dedup"
	case opLimit:
		return "limit"
	case opSample:
		return "sample"
	}
	return "unknown"
}

// step is one declarative node of the logical plan. Only the fields
// its Op consumes are set.
type step struct {
	Op   opcode
	Kind elemKind // element kind this step OUTPUTS (and, for filters, filters)

	Name  string     // Has: property name
	Value core.Value // Has: property value
	Label string     // HasLabel: edge label

	Labels []string       // expansions: label restriction
	Dir    core.Direction // Degree: direction
	K      int64          // Degree: threshold
	N      int64          // Limit / Sample: element budget
	Seed   int64          // Sample: PRNG seed
	ID     core.ID        // SourceVID / SourceEID

	Set map[core.ID]struct{} // Except set
}

// label renders the step with its arguments, e.g. `has(name=x)`.
func (s step) label() string {
	switch s.Op {
	case opHas:
		return fmt.Sprintf("has(%s=%s)", s.Name, s.Value)
	case opHasLabel:
		return fmt.Sprintf("hasLabel(%s)", s.Label)
	case opDegree:
		return fmt.Sprintf("degreeAtLeast(%s,%d)", s.Dir, s.K)
	case opExcept:
		return fmt.Sprintf("except(|set|=%d)", len(s.Set))
	case opOut, opIn, opBoth, opOutE, opInE, opBothE:
		if len(s.Labels) > 0 {
			return fmt.Sprintf("%s(%s)", s.Op, strings.Join(s.Labels, ","))
		}
		return s.Op.String() + "()"
	case opLimit:
		return fmt.Sprintf("limit(%d)", s.N)
	case opSample:
		return fmt.Sprintf("sample(%d)", s.N)
	case opSourceVID, opSourceEID:
		return s.Op.String()
	case opSourceV, opSourceE:
		return s.Op.String()
	default:
		return s.Op.String() + "()"
	}
}

// isSource reports whether the step roots the plan.
func (s step) isSource() bool {
	switch s.Op {
	case opSourceV, opSourceE, opSourceVID, opSourceEID:
		return true
	}
	return false
}
