package core

import "sync"

// ConcurrentWriter is the second optional concurrency capability next
// to ConcurrentReader: it reports whether the engine supports *mutation
// while other operations are in flight* under the single-writer/
// multi-reader discipline Guard enforces. Granting engines promise that
//
//   - read paths mutate no result-affecting shared state, so a single
//     exclusive writer interleaved with shared readers yields the same
//     per-operation results as some serial schedule of the same
//     operations (per-operation linearizability); and
//   - every mutation leaves the instance in a state from which all
//     read surfaces (scans, counts, traversals, indexes) are
//     consistent with each other.
//
// Engines that do not implement the interface — or return false — are
// limited to read-only concurrent workloads: the serving layer rejects
// mixed read/write mixes for them. The grant is about *semantics*, not
// raw memory safety: memory safety is the Guard's job, which is why
// even granting engines must be accessed through it (or equivalent
// external locking) when mutated concurrently.
type ConcurrentWriter interface {
	// ConcurrentWrites reports whether guarded mixed read/write
	// workloads yield per-operation results consistent with a serial
	// schedule.
	ConcurrentWrites() bool
}

// Guard wraps an engine for concurrent use under the documented
// contract: mutating operations hold an exclusive lock, read
// operations a shared one, so any number of readers run concurrently
// and writers serialize with everything. Engines that veto concurrent
// reads via ConcurrentReader degrade to full mutual exclusion — every
// operation exclusive — which preserves their sequential semantics
// under concurrent callers.
//
// Iterator-returning surfaces (Vertices, Edges, Neighbors, …)
// materialize their results while the lock is held and return a stable
// snapshot: a lazily-pulling iterator would otherwise read engine
// internals after the lock is gone, racing any later writer. The cost
// is bounded by the result size, and it buys the one contract a mixed
// workload needs — each Engine method is atomic with respect to every
// other.
//
// Multi-call queries (a traversal draining several iterators, a BFS)
// are *not* atomic as a whole: like any production store without
// transactions, they may observe mutations that land between calls.
//
// Guard forwards the optional capabilities of the wrapped engine
// (ConcurrentReader, ConcurrentWriter, PlanStatsProvider), so planner
// statistics and veto decisions survive wrapping.
func Guard(e Engine) *GuardedEngine {
	g := &GuardedEngine{inner: e}
	if cr, ok := e.(ConcurrentReader); ok && !cr.ConcurrentReads() {
		g.exclusive = true
	}
	return g
}

// The guard is a full Engine plus the optional capabilities.
var (
	_ Engine            = (*GuardedEngine)(nil)
	_ ConcurrentReader  = (*GuardedEngine)(nil)
	_ ConcurrentWriter  = (*GuardedEngine)(nil)
	_ PlanStatsProvider = (*GuardedEngine)(nil)
)

// GuardedEngine is the engine wrapper Guard returns. The zero value is
// not usable; always construct through Guard.
type GuardedEngine struct {
	inner Engine
	// exclusive degrades the shared (read) lock to the exclusive one
	// for engines that veto concurrent reads.
	exclusive bool
	mu        sync.RWMutex
}

// Unwrap returns the guarded engine.
func (g *GuardedEngine) Unwrap() Engine { return g.inner }

// Exclusive reports whether the guard serializes *all* operations —
// true exactly when the wrapped engine vetoed concurrent reads.
func (g *GuardedEngine) Exclusive() bool { return g.exclusive }

func (g *GuardedEngine) rlock() func() {
	if g.exclusive {
		g.mu.Lock()
		return g.mu.Unlock
	}
	g.mu.RLock()
	return g.mu.RUnlock
}

// --- capability forwarding ---

// ConcurrentReads always holds for the guarded view: a vetoing engine
// is fully serialized, so its results cannot depend on read
// interleaving; any other engine already granted it.
func (g *GuardedEngine) ConcurrentReads() bool { return true }

// ConcurrentWrites forwards the wrapped engine's grant.
func (g *GuardedEngine) ConcurrentWrites() bool {
	if cw, ok := g.inner.(ConcurrentWriter); ok {
		return cw.ConcurrentWrites()
	}
	return false
}

// PlanStats forwards the wrapped engine's planner statistics, so
// Explain sees through the guard.
func (g *GuardedEngine) PlanStats() *PlanStats {
	if p, ok := g.inner.(PlanStatsProvider); ok {
		return p.PlanStats()
	}
	return nil
}

// --- lifecycle and metadata ---

func (g *GuardedEngine) Meta() EngineMeta { return g.inner.Meta() }

func (g *GuardedEngine) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.Close()
}

func (g *GuardedEngine) BulkLoad(gr *Graph) (*LoadResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.BulkLoad(gr)
}

func (g *GuardedEngine) SpaceUsage() SpaceReport {
	defer g.rlock()()
	return g.inner.SpaceUsage()
}

// --- mutations: exclusive ---

func (g *GuardedEngine) AddVertex(props Props) (ID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.AddVertex(props)
}

func (g *GuardedEngine) AddEdge(src, dst ID, label string, props Props) (ID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.AddEdge(src, dst, label, props)
}

func (g *GuardedEngine) SetVertexProp(id ID, name string, v Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.SetVertexProp(id, name, v)
}

func (g *GuardedEngine) SetEdgeProp(id ID, name string, v Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.SetEdgeProp(id, name, v)
}

func (g *GuardedEngine) RemoveVertex(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.RemoveVertex(id)
}

func (g *GuardedEngine) RemoveEdge(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.RemoveEdge(id)
}

func (g *GuardedEngine) RemoveVertexProp(id ID, name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.RemoveVertexProp(id, name)
}

func (g *GuardedEngine) RemoveEdgeProp(id ID, name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.RemoveEdgeProp(id, name)
}

func (g *GuardedEngine) BuildVertexPropIndex(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.BuildVertexPropIndex(name)
}

// --- reads: shared ---

func (g *GuardedEngine) HasVertex(id ID) bool {
	defer g.rlock()()
	return g.inner.HasVertex(id)
}

func (g *GuardedEngine) HasEdge(id ID) bool {
	defer g.rlock()()
	return g.inner.HasEdge(id)
}

func (g *GuardedEngine) VertexProps(id ID) (Props, error) {
	defer g.rlock()()
	return g.inner.VertexProps(id)
}

func (g *GuardedEngine) EdgeProps(id ID) (Props, error) {
	defer g.rlock()()
	return g.inner.EdgeProps(id)
}

func (g *GuardedEngine) VertexProp(id ID, name string) (Value, bool) {
	defer g.rlock()()
	return g.inner.VertexProp(id, name)
}

func (g *GuardedEngine) EdgeProp(id ID, name string) (Value, bool) {
	defer g.rlock()()
	return g.inner.EdgeProp(id, name)
}

func (g *GuardedEngine) EdgeLabel(id ID) (string, error) {
	defer g.rlock()()
	return g.inner.EdgeLabel(id)
}

func (g *GuardedEngine) EdgeEnds(id ID) (src, dst ID, err error) {
	defer g.rlock()()
	return g.inner.EdgeEnds(id)
}

func (g *GuardedEngine) CountVertices() (int64, error) {
	defer g.rlock()()
	return g.inner.CountVertices()
}

func (g *GuardedEngine) CountEdges() (int64, error) {
	defer g.rlock()()
	return g.inner.CountEdges()
}

func (g *GuardedEngine) Degree(id ID, d Direction) (int64, error) {
	defer g.rlock()()
	return g.inner.Degree(id, d)
}

func (g *GuardedEngine) HasVertexPropIndex(name string) bool {
	defer g.rlock()()
	return g.inner.HasVertexPropIndex(name)
}

// --- iterator reads: materialized under the shared lock ---

func (g *GuardedEngine) snapshot(it Iter[ID]) Iter[ID] {
	return SliceIter(Collect(it))
}

func (g *GuardedEngine) Vertices() Iter[ID] {
	defer g.rlock()()
	return g.snapshot(g.inner.Vertices())
}

func (g *GuardedEngine) Edges() Iter[ID] {
	defer g.rlock()()
	return g.snapshot(g.inner.Edges())
}

func (g *GuardedEngine) VerticesByProp(name string, v Value) Iter[ID] {
	defer g.rlock()()
	return g.snapshot(g.inner.VerticesByProp(name, v))
}

func (g *GuardedEngine) EdgesByProp(name string, v Value) Iter[ID] {
	defer g.rlock()()
	return g.snapshot(g.inner.EdgesByProp(name, v))
}

func (g *GuardedEngine) EdgesByLabel(label string) Iter[ID] {
	defer g.rlock()()
	return g.snapshot(g.inner.EdgesByLabel(label))
}

func (g *GuardedEngine) Neighbors(id ID, d Direction, labels ...string) Iter[ID] {
	defer g.rlock()()
	return g.snapshot(g.inner.Neighbors(id, d, labels...))
}

func (g *GuardedEngine) IncidentEdges(id ID, d Direction, labels ...string) Iter[ID] {
	defer g.rlock()()
	return g.snapshot(g.inner.IncidentEdges(id, d, labels...))
}
