package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/workload"
)

// This file is the benchmark's own seeded parameter draw. Everything
// is drawn from the dataset graph, never from an engine, and
// translated to engine IDs through the engine's LoadResult at run time,
// so every engine is asked about the same logical objects (the paper's
// fairness requirement). Unlike harness.ParamGen the destructive draws
// are without replacement and fail loudly when the dataset is too
// small, so no operation of a schedule can fail.

// firstProp returns the lexicographically first property, so a draw
// never depends on map iteration order.
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

// degreeThreshold is the harness's Q28–Q30 parameter: four times the
// average out-degree, at least 2.
func degreeThreshold(g *core.Graph) int64 {
	k := int64(4 * g.NumEdges() / g.NumVertices())
	if k < 2 {
		k = 2
	}
	return k
}

// stratified picks k items from items, which the caller has sorted by
// the property that drives an operation's cost (here: degree): one
// from each of k equal strata, so that every schedule holds the same
// mix of hubs and leaves. With rng the pick is a uniform draw from the
// middle fifth of the stratum; with nil it is the stratum's middle
// item, the same for every seed. The expensive traversals (BFS,
// shortest path, the complex queries) use nil: their cost depends on
// where they start far more than on anything an engine does, and a
// start that moved with the seed would bury a 10% change in an engine
// under a 10% change in the schedule.
func stratified(rng *rand.Rand, items []int, k int) []int {
	out := make([]int, k)
	for i := range out {
		lo, hi := i*len(items)/k, (i+1)*len(items)/k
		mid, half := (lo+hi)/2, max(1, (hi-lo)/10)
		if rng != nil {
			mid += rng.Intn(2*half) - half
		}
		out[i] = items[min(len(items)-1, max(0, mid))]
	}
	return out
}

// --- read schedule ---

// readOp is one operation of the read schedule, bound to dataset
// indexes.
type readOp struct {
	q      *workload.Query        // a micro query, or
	cq     *workload.ComplexQuery // a complex one
	v, v2  int                    // dataset vertex indexes
	e      int                    // dataset edge index
	p      workload.Params        // the engine-independent arguments
	scalar bool                   // the result is a value, not a row count
}

func (op *readOp) name() string {
	if op.cq != nil {
		return op.cq.Name
	}
	return op.q.Name
}

func (op *readOp) run(ctx context.Context, e core.Engine, res *core.LoadResult) (workload.Result, error) {
	if op.cq != nil {
		return op.cq.Run(ctx, e, workload.ComplexParams{Person: res.VertexIDs[op.v], K: 5})
	}
	p := op.p
	p.V, p.V2, p.E = res.VertexIDs[op.v], res.VertexIDs[op.v2], res.EdgeIDs[op.e]
	return op.q.Run(ctx, e, p)
}

// readMix is how often one pass of the schedule runs each non-mutating
// query: weighted toward by-ID reads and one-hop traversals, with
// every whole-graph scan once, so that one pass on the slowest engine
// fits its time slice. The eleven non-mutating complex queries draw
// their acting person stratified by friend count.
var readMix = map[string]int{
	"Q8": 1, "Q9": 1, "Q10": 1, "Q11": 4, "Q12": 1, "Q13": 1, "Q14": 272, "Q15": 272,
	"Q22": 60, "Q23": 60, "Q24": 60, "Q25": 60, "Q26": 60, "Q27": 60,
	"Q28": 1, "Q29": 1, "Q30": 1, "Q31": 1,
	"Q32": 9, "Q33": 9, "Q34": 6, "Q35": 6,
	"max-iid": 1, "max-oid": 1, "city": 10, "company": 10, "university": 10, "friend1": 10,
	"friend2": 3, "friend-tags": 3, "friend-of-friend": 3, "triangle": 3, "places": 2,
}

// readSchedule draws one pass of the read workload from g (ldbc).
func readSchedule(g *core.Graph, seed int64) ([]readOp, error) {
	rng := rand.New(rand.NewSource(seed))
	snap := g.Snapshot()

	var connected, persons, withProps []int
	for v := 0; v < g.NumVertices(); v++ {
		if snap.Degree(v) > 0 {
			connected = append(connected, v)
		}
		if len(g.VProps[v]) > 0 {
			withProps = append(withProps, v)
		}
		if k, ok := g.VProps[v]["kind"]; ok && k.Str() == "person" {
			persons = append(persons, v)
		}
	}
	var edgesWithProps []int
	for i, e := range g.EdgeL {
		if len(e.Props) > 0 {
			edgesWithProps = append(edgesWithProps, i)
		}
	}
	if len(connected) < 2 || len(persons) == 0 || len(withProps) == 0 || len(edgesWithProps) == 0 {
		return nil, fmt.Errorf("read schedule: dataset too small (%d connected vertices, %d persons, %d vertices and %d edges with properties)",
			len(connected), len(persons), len(withProps), len(edgesWithProps))
	}
	sort.SliceStable(connected, func(i, j int) bool { return snap.Degree(connected[i]) < snap.Degree(connected[j]) })
	friends := make(map[int]int, len(persons))
	for _, ei := range snap.EdgesWithLabel("knows") {
		friends[g.EdgeL[ei].Src]++
	}
	sort.SliceStable(persons, func(i, j int) bool { return friends[persons[i]] < friends[persons[j]] })
	// The best-connected tenth stays out: on blaze one hub's
	// friends-of-friends cost more than the rest of the pass, so whether
	// a seed drew one would decide the metric. The grid workload runs
	// the complex queries on the best-connected person.
	persons = persons[:max(1, len(persons)*9/10)]

	// Edges ordered by how common their label is: a stratified draw
	// from this order asks for labels as often as the data carries
	// them, and for the same mix of common and rare ones on every seed.
	byLabel := make([]int, g.NumEdges())
	for i := range byLabel {
		byLabel[i] = i
	}
	sort.SliceStable(byLabel, func(i, j int) bool {
		li, lj := snap.LabelIx[byLabel[i]], snap.LabelIx[byLabel[j]]
		if ci, cj := snap.LabelEdgeCount(int(li)), snap.LabelEdgeCount(int(lj)); ci != cj {
			return ci < cj
		}
		return li < lj
	})

	base := workload.Params{K: degreeThreshold(g)}
	var ops []readOp
	for _, q := range workload.Queries() {
		n := readMix[q.Name]
		if q.Mutates {
			continue
		}
		if n == 0 {
			return nil, fmt.Errorf("read schedule: no weight for %s", q.Name)
		}
		q := q
		// The seed draws the targets of the cheap operations and the
		// order of all of them; see stratified for the expensive ones.
		draw := rng
		if q.Num >= 32 {
			draw = nil
		}
		starts, ends, labelled := stratified(draw, connected, n), stratified(draw, connected, n), stratified(draw, byLabel, n)
		// Pair every start with an end and a label of another rank.
		for i := 0; i < n/2; i++ {
			ends[i], ends[n-1-i] = ends[n-1-i], ends[i]
		}
		for i := range labelled {
			j := (i*7 + 3) % n
			labelled[i], labelled[j] = labelled[j], labelled[i]
		}
		for i := 0; i < n; i++ {
			op := readOp{q: &q, p: base, v: starts[i], v2: ends[i], e: rng.Intn(g.NumEdges())}
			op.p.Label = g.EdgeL[labelled[i]].Label
			switch q.Num {
			case 11:
				op.p.VPropName, op.p.VPropValue, _ = firstProp(g.VProps[withProps[rng.Intn(len(withProps))]])
			case 12:
				op.p.EPropName, op.p.EPropValue, _ = firstProp(g.EdgeL[edgesWithProps[rng.Intn(len(edgesWithProps))]].Props)
			case 14:
				op.v = rng.Intn(g.NumVertices())
			case 32, 33:
				// Two thirds at depth 2, one third at depth 3.
				op.p.Depth = 2 + i%3/2
			}
			ops = append(ops, op)
		}
	}
	for _, cq := range workload.ComplexQueries() {
		n := readMix[cq.Name]
		if cq.Mutates {
			continue
		}
		if n == 0 {
			return nil, fmt.Errorf("read schedule: no weight for %s", cq.Name)
		}
		cq := cq
		for _, person := range stratified(nil, persons, n) {
			ops = append(ops, readOp{cq: &cq, v: person, scalar: cq.Name == "max-iid" || cq.Name == "max-oid"})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// --- write stream ---

// writeOp is one operation of the mutation stream.
type writeOp struct {
	q     *workload.Query
	v, v2 int // dataset vertex indexes
	e     int // dataset edge index
	p     workload.Params
}

func (op *writeOp) run(ctx context.Context, e core.Engine, res *core.LoadResult) error {
	p := op.p
	p.V, p.V2, p.E = res.VertexIDs[op.v], res.VertexIDs[op.v2], res.EdgeIDs[op.e]
	_, err := op.q.Run(ctx, e, p)
	return err
}

// writeStream is a seeded mutation stream, cycles of the twelve
// mutating queries, with the totals a correct engine must hold after
// each cycle of it on a fresh load.
type writeStream struct {
	ops       []writeOp
	perCycle  int
	want      []struct{ v, e int64 } // totals after cycle i
	degreeCap int64                  // highest degree of a deleted vertex
}

// benchProp is the property the stream adds (Q5, Q6), then updates
// (Q17) and removes (Q21) on edges; frb-s edges carry none of their own.
const benchProp = "bench_new"

// writeStreamFor draws cycles rounds of the twelve mutating queries
// (Q2–Q7, Q16–Q21) from g. Victims are drawn without replacement:
// deleted vertices are distinct, below the degree threshold (deleting
// one hub would outweigh the rest of the stream and make its cost a
// property of the seed), and no other operation touches them or their
// edges; deleted edges and the edges that receive, then lose, a
// property are distinct and not incident to a deleted vertex.
func writeStreamFor(g *core.Graph, seed int64, cycles int) (*writeStream, error) {
	rng := rand.New(rand.NewSource(seed))
	snap := g.Snapshot()
	degCap := degreeThreshold(g)

	var candidates []int
	for v := 0; v < g.NumVertices(); v++ {
		if int64(snap.Degree(v)) <= degCap {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) < cycles {
		return nil, fmt.Errorf("write stream: %d cycles need %d vertices of degree ≤ %d to delete, dataset has %d", cycles, cycles, degCap, len(candidates))
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	victim := make(map[int]bool, cycles)
	for _, v := range candidates[:cycles] {
		victim[v] = true
	}

	var safeV, safeWithProps, safeE []int
	for v := 0; v < g.NumVertices(); v++ {
		if !victim[v] {
			safeV = append(safeV, v)
			if len(g.VProps[v]) > 0 {
				safeWithProps = append(safeWithProps, v)
			}
		}
	}
	// incident[v] lists a victim's edges: deleting it takes along those
	// an earlier victim has not taken already.
	incident := map[int][]int{}
	for i, e := range g.EdgeL {
		switch {
		case victim[e.Src] && victim[e.Dst] && e.Src != e.Dst:
			incident[e.Src] = append(incident[e.Src], i)
			incident[e.Dst] = append(incident[e.Dst], i)
		case victim[e.Src]:
			incident[e.Src] = append(incident[e.Src], i)
		case victim[e.Dst]:
			incident[e.Dst] = append(incident[e.Dst], i)
		default:
			safeE = append(safeE, i)
		}
	}
	gone := map[int]bool{}
	if len(safeE) < 2*cycles || len(safeWithProps) < cycles || len(safeV) < 2 {
		return nil, fmt.Errorf("write stream: %d cycles need %d untouched edges and %d vertices with properties, dataset has %d and %d",
			cycles, 2*cycles, cycles, len(safeE), len(safeWithProps))
	}
	rng.Shuffle(len(safeE), func(i, j int) { safeE[i], safeE[j] = safeE[j], safeE[i] })
	rng.Shuffle(len(safeWithProps), func(i, j int) { safeWithProps[i], safeWithProps[j] = safeWithProps[j], safeWithProps[i] })
	edgeVictims, propEdges, propVictims := safeE[:cycles], safeE[cycles:2*cycles], safeWithProps[:cycles]
	var holding []int // edges currently carrying benchProp

	anyV := func() int { return safeV[rng.Intn(len(safeV))] }
	s := &writeStream{degreeCap: degCap}
	wantV, wantE := int64(g.NumVertices()), int64(g.NumEdges())
	var mutating []workload.Query
	for _, q := range workload.Queries() {
		if q.Mutates {
			mutating = append(mutating, q)
		}
	}
	for c := 0; c < cycles; c++ {
		for i := range mutating {
			q := &mutating[i]
			op := writeOp{q: q, v: anyV(), v2: anyV(), e: safeE[0], p: workload.Params{
				Label:        g.EdgeL[rng.Intn(g.NumEdges())].Label,
				NewPropName:  benchProp,
				NewPropValue: core.I(int64(c)),
				NewVertex:    core.Props{"bench_name": core.S("created"), "bench_iter": core.I(int64(c))},
				NewEdgeProps: core.Props{"bench_w": core.I(int64(c))},
			}}
			switch q.Num {
			case 2:
				wantV++
			case 3, 4:
				wantE++
			case 6:
				op.e = propEdges[c]
				holding = append(holding, op.e)
			case 7:
				wantV++
				wantE += 2
			case 16:
				op.v = safeWithProps[rng.Intn(len(safeWithProps))]
				op.p.VPropName, _, _ = firstProp(g.VProps[op.v])
			case 17:
				op.e = holding[rng.Intn(len(holding))]
				op.p.EPropName = benchProp
			case 18:
				op.v = candidates[c]
				wantV--
				for _, ei := range incident[op.v] {
					if !gone[ei] {
						gone[ei] = true
						wantE--
					}
				}
			case 19:
				op.e = edgeVictims[c]
				wantE--
			case 20:
				op.v = propVictims[c]
				op.p.VPropName, _, _ = firstProp(g.VProps[op.v])
			case 21:
				i := rng.Intn(len(holding))
				op.e = holding[i]
				holding[i] = holding[len(holding)-1]
				holding = holding[:len(holding)-1]
				op.p.EPropName = benchProp
			}
			s.ops = append(s.ops, op)
		}
		s.want = append(s.want, struct{ v, e int64 }{wantV, wantE})
	}
	s.perCycle = len(mutating)
	return s, nil
}
