package datasets

import (
	"sync/atomic"

	"repro/internal/core"
)

// Stats computes the Table 3 characteristics of a dataset graph:
// connected components (treating edges as undirected, as the paper's
// component and diameter figures do), density, modularity of the
// component partition, degree statistics, and a double-sweep BFS
// estimate of the largest component's diameter.
//
// It works off the graph's shared CSR snapshot (core.Graph.Snapshot)
// and runs the sweeps on runtime.GOMAXPROCS(0) goroutines; see StatsCSR
// for the determinism contract.
func Stats(g *core.Graph) Table3Row { return StatsCSR(g.Snapshot(), 0) }

// StatsCSR computes the Table 3 row purely from a CSR snapshot — it
// never touches the owning graph, so it also serves snapshots decoded
// straight from a cache artifact (AcquireCSR). workers bounds the
// goroutines; workers <= 0 means runtime.GOMAXPROCS(0).
//
// The row is byte-identical for every worker count, including one:
// integer reductions (component count, sizes, degree sums, maxima)
// are order-free; the floating-point modularity sum combines fixed
// shardSize partials in shard order; and every selection (largest
// component, farthest BFS vertex) tie-breaks on the smallest vertex
// index. Union-find roots are canonical too — a root only ever links
// to a smaller root, so each component's root is its minimum vertex
// regardless of execution order.
func StatsCSR(c *core.CSR, workers int) Table3Row {
	n := c.NumVertices()
	m := c.NumEdges()
	row := Table3Row{V: n, E: m, L: len(c.Labels)}
	if n == 0 {
		return row
	}

	// Components: lock-free union-find over the undirected adjacency.
	// Each undirected edge is processed once (by its smaller endpoint's
	// shard); links always point from the larger root to the smaller.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for {
			p := atomic.LoadInt32(&parent[x])
			if p == x {
				return x
			}
			if gp := atomic.LoadInt32(&parent[p]); gp != p {
				atomic.CompareAndSwapInt32(&parent[x], p, gp) // path halving
			}
			x = p
		}
	}
	forShardsN(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			for _, w := range c.Und(v) {
				if int(w) <= v {
					continue
				}
				a, b := int32(v), w
				for {
					ra, rb := find(a), find(b)
					if ra == rb {
						break
					}
					if ra > rb {
						ra, rb = rb, ra
					}
					if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
						break
					}
				}
			}
		}
	})
	// Full compression: after this barrier parent[v] is the canonical
	// root and can be read without atomics.
	forShardsN(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			atomic.StoreInt32(&parent[v], find(int32(v)))
		}
	})

	// Component sizes and degree sums, indexed by root. Integer atomic
	// adds commute, so the totals are exact for any schedule.
	size := make([]int32, n)
	deg := make([]int64, n)
	forShardsN(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			r := parent[v]
			atomic.AddInt32(&size[r], 1)
			atomic.AddInt64(&deg[r], int64(c.Degree(v)))
		}
	})

	// Component count, largest component, max degree: per-shard bests
	// merged in shard order with strict comparisons, so ties resolve to
	// the smallest root/vertex.
	nsh := shardCount(n)
	type shardBest struct {
		comps            int
		maxSize, maxRoot int32
		maxDeg           int32
	}
	bests := make([]shardBest, nsh)
	forShardsN(n, workers, func(s, lo, hi int) {
		p := shardBest{maxRoot: -1}
		for v := lo; v < hi; v++ {
			if int(parent[v]) == v {
				p.comps++
				if size[v] > p.maxSize {
					p.maxSize, p.maxRoot = size[v], int32(v)
				}
			}
			if d := int32(c.Degree(v)); d > p.maxDeg {
				p.maxDeg = d
			}
		}
		bests[s] = p
	})
	maxRoot, maxSize := int32(-1), int32(0)
	for _, p := range bests {
		row.Components += p.comps
		if int(p.maxDeg) > row.MaxDeg {
			row.MaxDeg = int(p.maxDeg)
		}
		if p.maxRoot >= 0 && (maxRoot < 0 || p.maxSize > maxSize) {
			maxSize, maxRoot = p.maxSize, p.maxRoot
		}
	}
	row.MaxComp = int(maxSize)

	// Density of the directed graph.
	if n > 1 {
		row.Density = float64(m) / (float64(n) * float64(n-1))
	}

	// Modularity of the component partition:
	// Q = Σ_c [ e_c/m − (d_c/2m)² ]. With components as communities,
	// Σ e_c = m, so Q = 1 − Σ (d_c/2m)² — zero for a single component,
	// approaching 1 for many comparable fragments; this reproduces the
	// shape of the paper's modularity column. The float sum runs over
	// fixed shard partials in shard order (roots ascending within each),
	// never over a schedule-dependent order.
	if m > 0 {
		qpart := make([]float64, nsh)
		forShardsN(n, workers, func(s, lo, hi int) {
			sum := 0.0
			for v := lo; v < hi; v++ {
				if int(parent[v]) == v {
					frac := float64(deg[v]) / float64(2*m)
					sum += frac * frac
				}
			}
			qpart[s] = sum
		})
		sum := 0.0
		for _, q := range qpart {
			sum += q
		}
		row.Modularity = 1 - sum
	}

	row.AvgDeg = 2 * float64(m) / float64(n)

	// Diameter estimate: double-sweep BFS on the largest component,
	// seeded at its root — which, being the component's minimum vertex,
	// is the same seed the sequential scan used to find (exact
	// diameters are infeasible at these sizes; the double sweep is a
	// standard tight lower bound). Both sweeps share one distance array
	// and one frontier buffer pair.
	if m > 0 {
		b := newBFSState(n)
		far, _ := b.farthest(c, int(maxRoot), workers)
		_, dist := b.farthest(c, far, workers)
		row.Diameter = dist
	}
	return row
}

// bfsState holds the buffers of a BFS sweep so the double sweep (and
// any further sweeps) reuses one allocation set instead of paying it
// per call.
type bfsState struct {
	dist     []int32
	frontier []int32
	next     []int32
	buckets  [][]int32 // per-shard discovery lists, pooled across levels
}

func newBFSState(n int) *bfsState {
	return &bfsState{dist: make([]int32, n)}
}

// farthest runs a level-synchronous parallel BFS over the undirected
// adjacency from start and returns the farthest vertex plus its
// distance. Distances are exact (a vertex is claimed for level d by a
// CompareAndSwap that only ever fires at its true BFS depth), so the
// result — max distance, tie-broken to the smallest vertex index — is
// deterministic for any worker count even though the frontier
// permutation is not.
func (b *bfsState) farthest(c *core.CSR, start, workers int) (int, int) {
	n := c.NumVertices()
	forShardsN(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b.dist[i] = -1
		}
	})
	b.dist[start] = 0
	b.frontier = append(b.frontier[:0], int32(start))

	for level := int32(1); len(b.frontier) > 0; level++ {
		fsh := shardCount(len(b.frontier))
		for len(b.buckets) < fsh {
			b.buckets = append(b.buckets, nil)
		}
		forShardsN(len(b.frontier), workers, func(s, lo, hi int) {
			out := b.buckets[s][:0]
			for _, v := range b.frontier[lo:hi] {
				for _, w := range c.Und(int(v)) {
					if atomic.LoadInt32(&b.dist[w]) >= 0 {
						continue
					}
					if atomic.CompareAndSwapInt32(&b.dist[w], -1, level) {
						out = append(out, w)
					}
				}
			}
			b.buckets[s] = out
		})
		b.next = b.next[:0]
		for s := 0; s < fsh; s++ {
			b.next = append(b.next, b.buckets[s]...)
		}
		b.frontier, b.next = b.next, b.frontier
	}

	// Deterministic farthest reduce: per-shard (max dist, min vertex)
	// merged in shard order.
	type farBest struct{ v, d int32 }
	bests := make([]farBest, shardCount(n))
	forShardsN(n, workers, func(s, lo, hi int) {
		best := farBest{int32(lo), -1}
		for v := lo; v < hi; v++ {
			if d := b.dist[v]; d > best.d {
				best = farBest{int32(v), d}
			}
		}
		bests[s] = best
	})
	far := farBest{int32(start), 0}
	for _, p := range bests {
		if p.d > far.d {
			far = p
		}
	}
	return int(far.v), int(far.d)
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

// Pick samples k connected vertices and k edges with the given seed.
// Degrees come from the graph's shared CSR snapshot, so repeated calls
// (one per engine cell) no longer rebuild a degree array each time.
func Pick(g *core.Graph, seed int64, k int) Picks {
	snap := g.Snapshot()
	var connected []int
	for v, n := 0, g.NumVertices(); v < n; v++ {
		if snap.Degree(v) > 0 {
			connected = append(connected, v)
		}
	}
	rng := newSplitMix(seed)
	p := Picks{}
	for i := 0; i < k && len(connected) > 0; i++ {
		p.Vertices = append(p.Vertices, connected[int(rng.next()%uint64(len(connected)))])
	}
	for i := 0; i < k && g.NumEdges() > 0; i++ {
		p.Edges = append(p.Edges, int(rng.next()%uint64(g.NumEdges())))
	}
	return p
}

// splitMix is a tiny deterministic PRNG, independent of math/rand's
// stream so picks stay stable even if generators change.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{s: uint64(seed)} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
