package core

import (
	"fmt"
	"sort"
)

// EdgeRec is one edge of a dataset Graph. Src and Dst index into the
// graph's vertex table.
type EdgeRec struct {
	Src, Dst int
	Label    string
	Props    Props
}

// Graph is the engine-independent, in-memory dataset representation:
// what a GraphSON file deserializes to, and what the generators in
// internal/datasets produce. Vertices are implicit, numbered 0..NumV-1;
// VProps[i] holds the properties of vertex i.
//
// Graph is a value to load *into* engines, not a queryable store; engines
// each re-encode it into their own physical organization via BulkLoad.
type Graph struct {
	VProps []Props
	EdgeL  []EdgeRec

	// csr caches the CSR adjacency snapshot (see Snapshot); mutations
	// invalidate it.
	csr csrCache
}

// NewGraph returns an empty dataset graph with capacity hints.
func NewGraph(vcap, ecap int) *Graph {
	return &Graph{
		VProps: make([]Props, 0, vcap),
		EdgeL:  make([]EdgeRec, 0, ecap),
	}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.VProps) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.EdgeL) }

// AddVertex appends a vertex and returns its index.
func (g *Graph) AddVertex(p Props) int {
	g.csr.Store(nil)
	g.VProps = append(g.VProps, p)
	return len(g.VProps) - 1
}

// AddEdge appends an edge between existing vertex indexes.
func (g *Graph) AddEdge(src, dst int, label string, p Props) int {
	if src < 0 || src >= len(g.VProps) || dst < 0 || dst >= len(g.VProps) {
		panic(fmt.Sprintf("core: edge endpoints (%d,%d) out of range [0,%d)", src, dst, len(g.VProps)))
	}
	g.csr.Store(nil)
	g.EdgeL = append(g.EdgeL, EdgeRec{Src: src, Dst: dst, Label: label, Props: p})
	return len(g.EdgeL) - 1
}

// Labels returns the sorted set of distinct edge labels.
func (g *Graph) Labels() []string {
	set := make(map[string]struct{})
	for i := range g.EdgeL {
		set[g.EdgeL[i].Label] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []int {
	d := make([]int, len(g.VProps))
	for i := range g.EdgeL {
		d[g.EdgeL[i].Src]++
	}
	return d
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []int {
	d := make([]int, len(g.VProps))
	for i := range g.EdgeL {
		d[g.EdgeL[i].Dst]++
	}
	return d
}

// Adjacency builds an undirected adjacency list (neighbour vertex
// indexes, both directions, with duplicates for parallel edges). It is
// used by the dataset statistics (components, diameter) and by tests.
func (g *Graph) Adjacency() [][]int {
	deg := make([]int, len(g.VProps))
	for i := range g.EdgeL {
		deg[g.EdgeL[i].Src]++
		deg[g.EdgeL[i].Dst]++
	}
	adj := make([][]int, len(g.VProps))
	for v, d := range deg {
		adj[v] = make([]int, 0, d)
	}
	for i := range g.EdgeL {
		e := &g.EdgeL[i]
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	return adj
}

// LoadResult maps dataset object indexes to engine-local IDs after a
// BulkLoad. The harness uses it so that "the same random node" can be
// queried in every engine, as the paper's methodology requires.
type LoadResult struct {
	VertexIDs []ID // VertexIDs[i] is the engine ID of dataset vertex i
	EdgeIDs   []ID // EdgeIDs[i] is the engine ID of dataset edge i
}

// NewLoadResult returns a result sized for g, for BulkLoad to fill in.
func NewLoadResult(g *Graph) *LoadResult {
	return &LoadResult{
		VertexIDs: make([]ID, g.NumVertices()),
		EdgeIDs:   make([]ID, g.NumEdges()),
	}
}

// SpaceReport is an engine's structural space accounting, the measure
// behind the paper's Figure 1(a,b).
type SpaceReport struct {
	// Total is the number of bytes attributed to the engine's persistent
	// structures (record files, trees, journals, documents, tables).
	Total int64
	// Breakdown attributes bytes to named components, e.g. "journal",
	// "spo-index", "node-store".
	Breakdown map[string]int64
}

// Add accumulates a component into the report.
func (s *SpaceReport) Add(component string, bytes int64) {
	if s.Breakdown == nil {
		s.Breakdown = make(map[string]int64)
	}
	s.Breakdown[component] += bytes
	s.Total += bytes
}

// SystemKind distinguishes the two architecture families of Table 1.
type SystemKind string

// Architecture families.
const (
	KindNative SystemKind = "Native"
	KindHybrid SystemKind = "Hybrid"
)

// EngineMeta is the static description of an engine, reproducing the
// columns of the paper's Table 1.
type EngineMeta struct {
	Name          string     // e.g. "neo-1.9"
	Kind          SystemKind // Native or Hybrid
	Substrate     string     // e.g. "Document", "RDF", "Relational", "Columnar"
	Storage       string     // storage description column
	EdgeTraversal string     // edge traversal mechanism column
	Gremlin       string     // supported Gremlin dialect version
	Execution     string     // query execution column
	Optimized     bool       // whether the engine conflates/optimizes steps
}
