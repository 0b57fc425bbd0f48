package harness

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/workload"
)

// paramPoolPerQuery is the number of iterations of one query whose
// targets are kept apart: on a dataset large enough, iterations
// 0..paramPoolPerQuery-1 of a query get pairwise distinct V, pairwise
// distinct V2 (none of them a V) and pairwise distinct E, so batch
// iterations of a destructive query never collide. Iteration 0 is the
// interactive cell's, 1..BatchSize the batch cell's. Different queries
// may share targets: every mutating query runs on its own instance in
// the loaded state.
const paramPoolPerQuery = 64

// ParamGen derives per-query, per-iteration parameters from the dataset
// graph — never from an engine — and translates them to engine IDs via
// the engine's LoadResult. The same (dataset, seed) therefore yields
// the same logical choices for every engine, which is the paper's
// fairness requirement.
//
// A ParamGen is read-only after construction, so one per dataset is
// shared by every cell of a run and For may be called concurrently.
type ParamGen struct {
	g     *core.Graph
	picks datasets.Picks

	// vslots is the number of iterations per query with distinct
	// vertex targets, which sizes each query's window of vertex picks:
	// paramPoolPerQuery, or fewer on a dataset with fewer than twice
	// that many connected vertices. slots is the number with distinct
	// vertex and edge targets. For panics past it; the runner checks it
	// against the batch size first.
	vslots, slots int
	// edges[q] is query q's edge slots in iteration order: the edge
	// picks from q's own starting point on, without (for Q19 and Q21)
	// the edges incident to a vertex q reserves. propEdges[q] is the
	// same order restricted to edges that carry a property, which
	// Q17 and Q21 retarget onto.
	edges, propEdges [][]int

	label      string
	vPropName  string
	vPropValue core.Value
	ePropName  string
	ePropValue core.Value
	k          int64
}

// NewParamGen draws the dataset-level choices.
func NewParamGen(g *core.Graph, seed int64) *ParamGen {
	pg := &ParamGen{
		g: g,
		// Enough picks for every query's pool plus headroom.
		picks: datasets.Pick(g, seed, paramPoolPerQuery*40),
	}
	pg.vslots = min(paramPoolPerQuery, len(pg.picks.Vertices)/2)
	pg.slots = pg.vslots
	queries := workload.Queries()
	maxNum := 0
	for _, q := range queries {
		maxNum = max(maxNum, q.Num)
	}
	pg.edges = make([][]int, maxNum+1)
	pg.propEdges = make([][]int, maxNum+1)
	for _, q := range queries {
		pg.edges[q.Num], pg.propEdges[q.Num] = pg.edgeSlots(q.Num)
		pg.slots = min(pg.slots, len(pg.edges[q.Num]))
	}
	// Label: the label of the first picked edge.
	if len(pg.picks.Edges) > 0 {
		pg.label = g.EdgeL[pg.picks.Edges[0]].Label
	}
	// Vertex property: the lexicographically first property of the
	// first picked vertex that carries one.
	for _, v := range pg.picks.Vertices {
		if name, val, ok := firstProp(g.VProps[v]); ok {
			pg.vPropName, pg.vPropValue = name, val
			break
		}
	}
	// Edge property: same over picked edges. Datasets without edge
	// properties (all but ldbc) get a never-matching probe, as in the
	// paper where such searches return empty.
	pg.ePropName, pg.ePropValue = "absent", core.I(-1)
	for _, ei := range pg.picks.Edges {
		if name, val, ok := firstProp(g.EdgeL[ei].Props); ok {
			pg.ePropName, pg.ePropValue = name, val
			break
		}
	}
	// Degree threshold: twice the average degree, at least 2.
	if g.NumVertices() > 0 {
		pg.k = int64(4 * g.NumEdges() / g.NumVertices())
	}
	if pg.k < 2 {
		pg.k = 2
	}
	return pg
}

func firstProp(p core.Props) (string, core.Value, bool) {
	if len(p) == 0 {
		return "", core.Nil, false
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0], p[keys[0]], true
}

// VPropName exposes the chosen Q11 property name (the one the indexed
// experiment builds its index on).
func (pg *ParamGen) VPropName() string { return pg.vPropName }

// vertexAt returns the dataset vertex index behind V (off 0) or V2
// (off 1) of iteration iter of query qNum.
func (pg *ParamGen) vertexAt(qNum, iter, off int) int {
	pg.checkSlot(qNum, iter)
	return pg.vertexSlot(qNum, iter, off)
}

// vertexSlot is vertexAt's layout: each query owns a window of 2·vslots
// consecutive vertex picks, V's half then V2's, placed by query number
// so that it fits in the picks.
func (pg *ParamGen) vertexSlot(qNum, iter, off int) int {
	w := 2 * pg.vslots
	start := qNum * w % (len(pg.picks.Vertices) - w + 1)
	return pg.picks.Vertices[start+off*pg.vslots+iter]
}

// edgeAt returns the dataset edge index behind E of iteration iter of
// query qNum.
func (pg *ParamGen) edgeAt(qNum, iter int) int {
	pg.checkSlot(qNum, iter)
	return pg.edges[qNum][iter]
}

// checkSlot panics when iter has no distinct target left: reusing one
// would make a destructive batch fail on an object an earlier iteration
// removed. The runner rejects such a batch size before any query runs.
func (pg *ParamGen) checkSlot(qNum, iter int) {
	if iter < 0 || iter >= pg.slots {
		panic(fmt.Sprintf("harness: Q%d iteration %d: the dataset has distinct targets for %d iterations", qNum, iter, pg.slots))
	}
}

// checkBatch reports whether the dataset has distinct targets for every
// iteration a query runs: slot 0 for the interactive cell and 1..batch
// for the batch cell.
func (pg *ParamGen) checkBatch(batch int) error {
	if batch >= pg.slots {
		return fmt.Errorf("dataset too small for batch size %d: %d connected vertices and %d edges give each query distinct targets for only %d iterations",
			batch, len(pg.picks.Vertices), len(pg.picks.Edges), pg.slots)
	}
	return nil
}

// edgeSlots returns query qNum's edge slots and, for Q17 and Q21, its
// property-bearing edge slots, each at most paramPoolPerQuery long: the
// edge picks in order from the query's starting point, going round
// once. Q19 and Q21, which remove edges and edge properties, skip edges
// incident to any vertex the query reserves as V or V2, so their edge
// targets share no object with their vertex targets.
func (pg *ParamGen) edgeSlots(qNum int) (all, withProps []int) {
	picks := pg.picks.Edges
	if len(picks) == 0 {
		return nil, nil
	}
	var reserved map[int]bool
	if qNum == 19 || qNum == 21 {
		reserved = make(map[int]bool, 2*pg.vslots)
		for iter := 0; iter < pg.vslots; iter++ {
			reserved[pg.vertexSlot(qNum, iter, 0)] = true
			reserved[pg.vertexSlot(qNum, iter, 1)] = true
		}
	}
	retargets := qNum == 17 || qNum == 21
	start := qNum * paramPoolPerQuery
	for j := range picks {
		ei := picks[(start+j)%len(picks)]
		er := &pg.g.EdgeL[ei]
		if reserved[er.Src] || reserved[er.Dst] {
			continue
		}
		if len(all) < paramPoolPerQuery {
			all = append(all, ei)
		} else if !retargets {
			break
		}
		if retargets && len(er.Props) > 0 && len(withProps) < paramPoolPerQuery {
			withProps = append(withProps, ei)
		}
	}
	return all, withProps
}

// For builds the parameters for one execution of q. iter distinguishes
// batch iterations: destructive queries get disjoint targets per
// iteration. The BFS depth is Figure 6's smallest, 2; a Q32 cell of
// the depth sweep sets p.Depth itself.
func (pg *ParamGen) For(q *workload.Query, iter int, res *core.LoadResult) workload.Params {
	p := workload.Params{
		Label:        pg.label,
		VPropName:    pg.vPropName,
		VPropValue:   pg.vPropValue,
		EPropName:    pg.ePropName,
		EPropValue:   pg.ePropValue,
		NewPropName:  "bench_new",
		NewPropValue: core.I(int64(iter)),
		NewVertex:    core.Props{"bench_name": core.S("created"), "bench_iter": core.I(int64(iter))},
		NewEdgeProps: core.Props{"bench_w": core.I(int64(iter))},
		K:            pg.k,
		Depth:        2,
	}
	// Non-destructive per-vertex queries reuse the same target across
	// iterations (the paper measures the same op repeatedly); the
	// destructive ones draw from their reserved pool.
	stableIter := 0
	if q.Mutates {
		stableIter = iter
	}
	p.V = res.VertexIDs[pg.vertexAt(q.Num, stableIter, 0)]
	p.V2 = res.VertexIDs[pg.vertexAt(q.Num, stableIter, 1)]
	p.E = res.EdgeIDs[pg.edgeAt(q.Num, stableIter)]
	// Q16/Q20 need an existing vertex property on the target; Q17/Q21
	// an existing edge property. Retarget onto objects that have them.
	switch q.Num {
	case 16, 20:
		if v, ok := pg.vertexWithProp(stableIter); ok {
			p.V = res.VertexIDs[v]
			p.VPropName, _, _ = firstProp(pg.g.VProps[v])
		}
	case 17, 21:
		if eis := pg.propEdges[q.Num]; stableIter < len(eis) {
			ei := eis[stableIter]
			p.E = res.EdgeIDs[ei]
			p.EPropName, _, _ = firstProp(pg.g.EdgeL[ei].Props)
		}
	}
	return p
}

func (pg *ParamGen) vertexWithProp(iter int) (int, bool) {
	seen := 0
	for _, v := range pg.picks.Vertices {
		if len(pg.g.VProps[v]) > 0 {
			if seen == iter {
				return v, true
			}
			seen++
		}
	}
	return 0, false
}

// ComplexFor draws the complex-workload parameters from the ldbc graph.
func ComplexFor(g *core.Graph, res *core.LoadResult) workload.ComplexParams {
	byKind := map[string][]int{}
	for i, p := range g.VProps {
		if k, ok := p["kind"]; ok {
			byKind[k.Str()] = append(byKind[k.Str()], i)
		}
	}
	pick := func(kind string, n int) int {
		s := byKind[kind]
		if len(s) == 0 {
			return 0
		}
		return s[n%len(s)]
	}
	// A person with friends: prefer one that has outgoing knows edges.
	person := pick("person", 0)
	// The snapshot's per-label slice walks exactly the knows edges
	// instead of scanning and comparing all |E| labels.
	outKnows := map[int]int{}
	for _, ei := range g.Snapshot().EdgesWithLabel("knows") {
		outKnows[g.EdgeL[ei].Src]++
	}
	best := person
	for _, v := range byKind["person"] {
		if outKnows[v] > outKnows[best] {
			best = v
		}
	}
	person = best
	cp := workload.ComplexParams{
		Person:     res.VertexIDs[person],
		City:       res.VertexIDs[pick("place", 0)],
		University: res.VertexIDs[pick("university", 0)],
		Company:    res.VertexIDs[pick("company", 0)],
		NewPerson: core.Props{
			"kind": core.S("person"), "firstName": core.S("Bench"),
			"lastName": core.S("User"), "uid": core.I(int64(g.NumVertices()) + 1),
		},
		K: 5,
	}
	for i := 0; i < 3; i++ {
		cp.Tags = append(cp.Tags, res.VertexIDs[pick("tag", i)])
	}
	return cp
}
