package datasets

import "repro/internal/core"

// Stats computes the Table 3 characteristics of a dataset graph:
// connected components (treating edges as undirected, as the paper's
// component and diameter figures do), density, modularity of the
// component partition (not the paper's modularity, whose partition the
// paper does not give), degree statistics, and a double-sweep BFS
// estimate of the largest component's diameter.
//
// It works off the graph's shared CSR snapshot (core.Graph.Snapshot);
// see StatsCSR for the tie-break rules that make the row deterministic.
func Stats(g *core.Graph) Table3Row { return StatsCSR(g.Snapshot(), 0) }

// StatsCSR computes the Table 3 row purely from a CSR snapshot — it
// never touches the owning graph, so it also serves snapshots decoded
// straight from a cache artifact (AcquireCSR). It runs in one
// sequential pass on the calling goroutine; workers is ignored.
//
// The row is a pure function of the snapshot. Components are labelled
// by BFS from each unlabelled vertex in index order, so a component's
// root is its smallest vertex; a largest-component tie goes to the
// smallest root, and a farthest-vertex tie in the diameter sweeps goes
// to the smallest index.
func StatsCSR(c *core.CSR, workers int) Table3Row {
	n := c.NumVertices()
	m := c.NumEdges()
	row := Table3Row{V: n, E: m, L: len(c.Labels)}
	if n == 0 {
		return row
	}

	// Components: root[v] is the smallest vertex of v's component, -1
	// until labelled. Each BFS also sums its component's size and degree.
	root := make([]int32, n)
	for i := range root {
		root[i] = -1
	}
	queue := make([]int32, n)
	maxRoot, maxSize := int32(0), 0
	// Modularity of the component partition:
	// Q = Σ_c [ e_c/m − (d_c/2m)² ]. With components as communities,
	// Σ e_c = m, so Q = 1 − Σ (d_c/2m)² — zero for a single component,
	// approaching 1 for many comparable fragments. This is not the
	// quantity in the paper's modularity column, whose definition
	// cannot be recovered from the paper's other columns: frb-o's
	// largest component holds 1.6M of 1.9M vertices, which caps its
	// component-partition modularity near 0.86, yet the paper reports
	// 0.982. The squares are summed per
	// shardSize block of roots and the block sums added in order: a flat
	// sum changes the last bits of Q once |V| > shardSize (frb-l), and
	// Table 3 output is pinned bit for bit.
	sumSq, blockSq, block := 0.0, 0.0, 0
	for r := range n {
		row.MaxDeg = max(row.MaxDeg, c.Degree(r))
		if root[r] >= 0 {
			continue
		}
		row.Components++
		root[r], queue[0] = int32(r), int32(r)
		size, deg := 1, 0
		for head := 0; head < size; head++ {
			adj := c.Und(int(queue[head]))
			deg += len(adj)
			for _, w := range adj {
				if root[w] < 0 {
					root[w], queue[size] = int32(r), w
					size++
				}
			}
		}
		if size > maxSize {
			maxRoot, maxSize = int32(r), size
		}
		if m > 0 {
			if r/shardSize != block {
				sumSq, blockSq, block = sumSq+blockSq, 0, r/shardSize
			}
			frac := float64(deg) / float64(2*m)
			blockSq += frac * frac
		}
	}
	row.MaxComp = maxSize

	// Density of the directed graph.
	if n > 1 {
		row.Density = float64(m) / (float64(n) * float64(n-1))
	}
	row.AvgDeg = 2 * float64(m) / float64(n)

	// Diameter estimate: double-sweep BFS on the largest component,
	// seeded at its root (exact diameters are infeasible at these sizes;
	// the double sweep is a standard tight lower bound). Both sweeps
	// reuse the component queue and share one distance array.
	if m > 0 {
		row.Modularity = 1 - (sumSq + blockSq)
		dist := root // the component labels are spent; reuse their array
		far, _ := farthest(c, maxRoot, queue, dist)
		_, d := farthest(c, far, queue, dist)
		row.Diameter = int(d)
	}
	return row
}

// farthest runs a BFS over the undirected adjacency from start, with
// queue and dist as scratch, and returns the farthest vertex — the
// smallest index among those at the maximum distance — and its
// distance.
func farthest(c *core.CSR, start int32, queue, dist []int32) (int32, int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[start], queue[0] = 0, start
	far := start
	for head, tail := 0, 1; head < tail; head++ {
		v := queue[head]
		for _, w := range c.Und(int(v)) {
			if dist[w] >= 0 {
				continue
			}
			dist[w], queue[tail] = dist[v]+1, w
			tail++
			if dist[w] > dist[far] || (dist[w] == dist[far] && w < far) {
				far = w
			}
		}
	}
	return far, dist[far]
}

// PickRandom draws deterministic benchmark parameters from a dataset
// graph: the harness uses it so the same logical objects are used on
// every engine (Section 5's fairness requirement). It prefers vertices
// that have edges, since most per-vertex queries are uninteresting on
// isolated vertices.
type Picks struct {
	Vertices []int // dataset vertex indexes with degree > 0
	Edges    []int // dataset edge indexes
}

// Pick draws up to k distinct connected vertices and up to k distinct
// edges with the given seed, each list in draw order. Draws are without
// replacement, so the lists stop at |connected| and |E|. Degrees come
// from the graph's shared CSR snapshot, so repeated calls (one per
// engine cell) no longer rebuild a degree array each time.
func Pick(g *core.Graph, seed int64, k int) Picks {
	snap := g.Snapshot()
	var connected []int
	for v, n := 0, g.NumVertices(); v < n; v++ {
		if snap.Degree(v) > 0 {
			connected = append(connected, v)
		}
	}
	rng := newSplitMix(seed)
	p := Picks{Vertices: sample(rng, len(connected), k)}
	for i, j := range p.Vertices {
		p.Vertices[i] = connected[j]
	}
	p.Edges = sample(rng, g.NumEdges(), k)
	return p
}

// sample returns min(k, n) distinct integers of [0, n) in random order:
// the first k steps of a Fisher–Yates shuffle of 0..n-1, keeping only
// the displaced positions (in a map) instead of an n-sized array.
func sample(rng *splitMix, n, k int) []int {
	k = min(k, n)
	out := make([]int, k)
	moved := make(map[int]int, k)
	at := func(i int) int {
		if v, ok := moved[i]; ok {
			return v
		}
		return i
	}
	for i := range out {
		j := i + int(rng.next()%uint64(n-i))
		out[i] = at(j)
		moved[j] = at(i)
	}
	return out
}

// splitMix is a tiny deterministic PRNG, independent of math/rand's
// stream so picks stay stable even if generators change.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{s: uint64(seed)} }

func (r *splitMix) next() uint64 {
	z := splitmix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return z
}
