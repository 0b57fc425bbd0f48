package core

// Engine is the contract every storage engine under test implements. It
// plays the role the TinkerPop adapter plays in the paper: a common
// access surface over which all 35 micro queries and the 13 complex
// queries are expressed exactly once (in internal/gremlin and
// internal/workload), so that observed differences come from the
// engines' physical organization, not from query phrasing.
//
// Concurrency contract: concurrent *reads* must always be race-free —
// read paths may keep internal accounting only behind atomics or locks
// (the -cell-workers fan-out depends on this). Engines are
// single-writer: mutation is never safe concurrently with anything
// else unless the caller serializes it, which is what Guard provides
// (exclusive writer, shared readers). Two optional capabilities refine
// the contract per engine: ConcurrentReader lets an engine veto read
// fan-out when its read results depend on interleaving, and
// ConcurrentWriter reports whether guarded mixed read/write workloads
// yield serial-schedule-consistent results. The serving layer
// (internal/serve) and the enginetest concurrency-conformance suite
// are written against exactly this contract.
type Engine interface {
	// Meta describes the engine (Table 1).
	Meta() EngineMeta

	// --- Create (Q2–Q7) ---

	// AddVertex creates a vertex with the given properties.
	AddVertex(props Props) (ID, error)
	// AddEdge creates a labelled edge between existing vertices.
	AddEdge(src, dst ID, label string, props Props) (ID, error)

	// --- Read: by id (Q14, Q15) ---

	// HasVertex reports whether the vertex exists.
	HasVertex(id ID) bool
	// HasEdge reports whether the edge exists.
	HasEdge(id ID) bool
	// VertexProps returns a copy of the vertex's properties.
	VertexProps(id ID) (Props, error)
	// EdgeProps returns a copy of the edge's properties.
	EdgeProps(id ID) (Props, error)
	// VertexProp returns one vertex property.
	VertexProp(id ID, name string) (Value, bool)
	// EdgeProp returns one edge property.
	EdgeProp(id ID, name string) (Value, bool)
	// EdgeLabel returns the edge's label.
	EdgeLabel(id ID) (string, error)
	// EdgeEnds returns the source and destination vertices of an edge.
	EdgeEnds(id ID) (src, dst ID, err error)

	// --- Update (Q5, Q6, Q16, Q17) ---

	// SetVertexProp creates or updates a vertex property.
	SetVertexProp(id ID, name string, v Value) error
	// SetEdgeProp creates or updates an edge property.
	SetEdgeProp(id ID, name string, v Value) error

	// --- Delete (Q18–Q21) ---

	// RemoveVertex deletes a vertex, its properties, and — as the paper
	// requires of Q18 — all its incident edges.
	RemoveVertex(id ID) error
	// RemoveEdge deletes an edge and its properties.
	RemoveEdge(id ID) error
	// RemoveVertexProp deletes one vertex property.
	RemoveVertexProp(id ID, name string) error
	// RemoveEdgeProp deletes one edge property.
	RemoveEdgeProp(id ID, name string) error

	// --- Scans (Q8–Q13) ---

	// CountVertices returns the number of live vertices (Q8). Engines
	// whose architecture cannot count without materializing must
	// materialize here (that cost is part of what is being measured).
	CountVertices() (int64, error)
	// CountEdges returns the number of live edges (Q9).
	CountEdges() (int64, error)
	// Vertices iterates all live vertex IDs.
	Vertices() Iter[ID]
	// Edges iterates all live edge IDs.
	Edges() Iter[ID]
	// VerticesByProp finds vertices with property name = v (Q11), using
	// the attribute index if one was built, scanning otherwise.
	VerticesByProp(name string, v Value) Iter[ID]
	// EdgesByProp finds edges with property name = v (Q12).
	EdgesByProp(name string, v Value) Iter[ID]
	// EdgesByLabel finds edges with the given label (Q13).
	EdgesByLabel(label string) Iter[ID]

	// --- Traversal (Q22–Q35 building blocks) ---

	// Neighbors iterates the vertices adjacent to id in direction d,
	// optionally restricted to the given edge labels.
	Neighbors(id ID, d Direction, labels ...string) Iter[ID]
	// IncidentEdges iterates the edges incident to id in direction d,
	// optionally restricted to the given edge labels.
	IncidentEdges(id ID, d Direction, labels ...string) Iter[ID]
	// Degree counts incident edges. It returns ErrOutOfMemory when the
	// engine's Gremlin adapter must materialize beyond its budget (the
	// Sparksee Q28–Q31 failure mode from the paper).
	Degree(id ID, d Direction) (int64, error)

	// --- Attribute indexing (Section 6.4, "Effect of Indexing") ---

	// BuildVertexPropIndex creates the user-controlled attribute index
	// on a vertex property. Engines without the capability return
	// ErrUnsupported.
	BuildVertexPropIndex(name string) error
	// HasVertexPropIndex reports whether the index exists.
	HasVertexPropIndex(name string) bool

	// --- Bulk load (Q1) and lifecycle ---

	// BulkLoad ingests a dataset graph using the engine's preferred bulk
	// path (the paper had to bypass Gremlin for several systems; the
	// per-engine differences in this path are part of Figure 3(a)).
	BulkLoad(g *Graph) (*LoadResult, error)
	// SpaceUsage reports structural space occupancy (Figure 1).
	SpaceUsage() SpaceReport
	// Close releases the engine's stored data; only its configuration
	// survives. A closed engine that is still referenced must not pin
	// the graph it held, so after Close no method panics, reads answer
	// as on an empty graph, AddVertex, AddEdge and BulkLoad return
	// ErrClosed, and a second Close returns nil.
	Close() error
}

// Constructor builds a fresh, empty engine instance. Registered per
// engine configuration in internal/engines.
type Constructor func() Engine

// ConcurrentReader lets an engine veto read fan-out. All engines must
// make concurrent reads race-free (see Engine), but an engine whose
// read paths share *result-affecting* mutable state — e.g. Sparksee's
// retention accounting, whose OOM verdict depends on what other
// in-flight reads have accumulated — returns false here, and the
// harness measures its batches sequentially even when cell parallelism
// is enabled, preserving deterministic results. Engines that do not
// implement the interface are treated as safe to fan out.
type ConcurrentReader interface {
	// ConcurrentReads reports whether concurrent read queries yield the
	// same results as sequential execution.
	ConcurrentReads() bool
}
