package core

import (
	"sync"
	"testing"
)

// stubEngine is a minimal map-backed Engine for guard tests. It is
// deliberately unsynchronized — the guard must provide all mutual
// exclusion — and counts how many operations are in flight so tests
// can prove writers never overlap anything.
type stubEngine struct {
	vetoReads  bool
	grantWrite bool

	nextID   ID
	vertices map[ID]Props
	edges    map[ID][3]int64 // src, dst, label index (unused)

	inFlight   int
	maxReaders int
	overlapped bool // a writer overlapped another operation
	writing    bool
	trackMu    sync.Mutex // tracking only; never protects the maps
}

func newStub(vetoReads bool) *stubEngine {
	return &stubEngine{
		vetoReads: vetoReads, grantWrite: !vetoReads,
		vertices: map[ID]Props{}, edges: map[ID][3]int64{},
	}
}

func (s *stubEngine) enter(write bool) func() {
	s.trackMu.Lock()
	if s.writing || (write && s.inFlight > 0) {
		s.overlapped = true
	}
	s.inFlight++
	if write {
		s.writing = true
	} else if s.inFlight > s.maxReaders {
		s.maxReaders = s.inFlight
	}
	s.trackMu.Unlock()
	return func() {
		s.trackMu.Lock()
		s.inFlight--
		if write {
			s.writing = false
		}
		s.trackMu.Unlock()
	}
}

func (s *stubEngine) ConcurrentReads() bool  { return !s.vetoReads }
func (s *stubEngine) ConcurrentWrites() bool { return s.grantWrite }

func (s *stubEngine) Meta() EngineMeta {
	return EngineMeta{Name: "stub", Kind: KindNative, Storage: "maps", EdgeTraversal: "maps", Gremlin: "-"}
}

func (s *stubEngine) AddVertex(props Props) (ID, error) {
	defer s.enter(true)()
	id := s.nextID
	s.nextID++
	s.vertices[id] = props
	return id, nil
}

func (s *stubEngine) AddEdge(src, dst ID, label string, props Props) (ID, error) {
	defer s.enter(true)()
	id := s.nextID
	s.nextID++
	s.edges[id] = [3]int64{int64(src), int64(dst), 0}
	return id, nil
}

func (s *stubEngine) HasVertex(id ID) bool {
	defer s.enter(false)()
	_, ok := s.vertices[id]
	return ok
}

func (s *stubEngine) HasEdge(id ID) bool {
	defer s.enter(false)()
	_, ok := s.edges[id]
	return ok
}

func (s *stubEngine) VertexProps(id ID) (Props, error) {
	defer s.enter(false)()
	p, ok := s.vertices[id]
	if !ok {
		return nil, ErrNotFound
	}
	return p, nil
}

func (s *stubEngine) EdgeProps(id ID) (Props, error)           { return nil, ErrNotFound }
func (s *stubEngine) VertexProp(id ID, n string) (Value, bool) { return Nil, false }
func (s *stubEngine) EdgeProp(id ID, n string) (Value, bool)   { return Nil, false }
func (s *stubEngine) EdgeLabel(id ID) (string, error)          { return "", ErrNotFound }
func (s *stubEngine) EdgeEnds(id ID) (ID, ID, error) {
	defer s.enter(false)()
	e, ok := s.edges[id]
	if !ok {
		return NoID, NoID, ErrNotFound
	}
	return ID(e[0]), ID(e[1]), nil
}

func (s *stubEngine) SetVertexProp(id ID, n string, v Value) error {
	defer s.enter(true)()
	p, ok := s.vertices[id]
	if !ok {
		return ErrNotFound
	}
	if p == nil {
		p = Props{}
		s.vertices[id] = p
	}
	p[n] = v
	return nil
}

func (s *stubEngine) SetEdgeProp(id ID, n string, v Value) error { return ErrNotFound }

func (s *stubEngine) RemoveVertex(id ID) error {
	defer s.enter(true)()
	if _, ok := s.vertices[id]; !ok {
		return ErrNotFound
	}
	delete(s.vertices, id)
	for eid, e := range s.edges {
		if ID(e[0]) == id || ID(e[1]) == id {
			delete(s.edges, eid)
		}
	}
	return nil
}

func (s *stubEngine) RemoveEdge(id ID) error {
	defer s.enter(true)()
	if _, ok := s.edges[id]; !ok {
		return ErrNotFound
	}
	delete(s.edges, id)
	return nil
}

func (s *stubEngine) RemoveVertexProp(id ID, n string) error { return ErrNotFound }
func (s *stubEngine) RemoveEdgeProp(id ID, n string) error   { return ErrNotFound }

func (s *stubEngine) CountVertices() (int64, error) {
	defer s.enter(false)()
	return int64(len(s.vertices)), nil
}

func (s *stubEngine) CountEdges() (int64, error) {
	defer s.enter(false)()
	return int64(len(s.edges)), nil
}

func (s *stubEngine) Vertices() Iter[ID] {
	defer s.enter(false)()
	ids := make([]ID, 0, len(s.vertices))
	for id := range s.vertices {
		ids = append(ids, id)
	}
	return SliceIter(ids)
}

func (s *stubEngine) Edges() Iter[ID] {
	defer s.enter(false)()
	ids := make([]ID, 0, len(s.edges))
	for id := range s.edges {
		ids = append(ids, id)
	}
	return SliceIter(ids)
}

func (s *stubEngine) VerticesByProp(n string, v Value) Iter[ID]              { return EmptyIter[ID]() }
func (s *stubEngine) EdgesByProp(n string, v Value) Iter[ID]                 { return EmptyIter[ID]() }
func (s *stubEngine) EdgesByLabel(l string) Iter[ID]                         { return EmptyIter[ID]() }
func (s *stubEngine) Neighbors(id ID, d Direction, ls ...string) Iter[ID]    { return EmptyIter[ID]() }
func (s *stubEngine) IncidentEdges(id ID, d Direction, l ...string) Iter[ID] { return EmptyIter[ID]() }

func (s *stubEngine) Degree(id ID, d Direction) (int64, error) {
	defer s.enter(false)()
	if _, ok := s.vertices[id]; !ok {
		return 0, ErrNotFound
	}
	n := int64(0)
	for _, e := range s.edges {
		if ID(e[0]) == id || ID(e[1]) == id {
			n++
		}
	}
	return n, nil
}

func (s *stubEngine) BuildVertexPropIndex(n string) error { return ErrUnsupported }
func (s *stubEngine) HasVertexPropIndex(n string) bool    { return false }

func (s *stubEngine) BulkLoad(g *Graph) (*LoadResult, error) {
	defer s.enter(true)()
	res := &LoadResult{}
	for _, p := range g.VProps {
		id := s.nextID
		s.nextID++
		s.vertices[id] = p
		res.VertexIDs = append(res.VertexIDs, id)
	}
	for _, e := range g.EdgeL {
		id := s.nextID
		s.nextID++
		s.edges[id] = [3]int64{int64(res.VertexIDs[e.Src]), int64(res.VertexIDs[e.Dst]), 0}
		res.EdgeIDs = append(res.EdgeIDs, id)
	}
	return res, nil
}

func (s *stubEngine) SpaceUsage() SpaceReport { return SpaceReport{} }
func (s *stubEngine) Close() error            { return nil }

// TestGuardSingleWriterMultiReader hammers a guarded unsynchronized
// engine with concurrent readers and writers: the tracking instruments
// in the stub prove no writer ever overlapped another operation, and
// the race detector proves the guard's locking covers the map accesses.
func TestGuardSingleWriterMultiReader(t *testing.T) {
	s := newStub(false)
	g := Guard(s)
	if g.Exclusive() {
		t.Fatal("guard serialized a read-granting engine")
	}
	seed, err := g.AddVertex(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, _ := g.AddVertex(Props{"i": I(int64(i))})
				g.AddEdge(seed, v, "w", nil)
				g.SetVertexProp(v, "touch", I(int64(w)))
				if i%3 == 0 {
					g.RemoveVertex(v)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				g.HasVertex(seed)
				g.CountVertices()
				g.CountEdges()
				Drain(g.Vertices())
				g.Degree(seed, DirBoth)
			}
		}()
	}
	wg.Wait()
	s.trackMu.Lock()
	defer s.trackMu.Unlock()
	if s.overlapped {
		t.Fatal("a writer overlapped another operation under the guard")
	}
	if s.maxReaders < 2 {
		t.Log("note: readers never actually overlapped (scheduling-dependent)")
	}
}

// TestGuardExclusiveForVetoingEngine verifies the degraded mode: an
// engine vetoing concurrent reads gets full mutual exclusion, and the
// guarded view re-grants ConcurrentReads (results can no longer depend
// on interleaving).
func TestGuardExclusiveForVetoingEngine(t *testing.T) {
	s := newStub(true)
	g := Guard(s)
	if !g.Exclusive() {
		t.Fatal("guard did not serialize a vetoing engine")
	}
	if !g.ConcurrentReads() {
		t.Fatal("guarded view must grant ConcurrentReads (it serializes)")
	}
	if g.ConcurrentWrites() {
		t.Fatal("guard invented a ConcurrentWrites grant")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, _ := g.AddVertex(nil)
				g.HasVertex(v)
				g.CountVertices()
			}
		}()
	}
	wg.Wait()
	s.trackMu.Lock()
	defer s.trackMu.Unlock()
	if s.overlapped {
		t.Fatal("operations overlapped under the exclusive guard")
	}
	if s.maxReaders > 1 {
		t.Fatalf("%d readers overlapped under the exclusive guard", s.maxReaders)
	}
}

// TestGuardSnapshotIterators proves an iterator handed out by the
// guard is a stable snapshot: mutations after the call must not change
// (or race) what it yields.
func TestGuardSnapshotIterators(t *testing.T) {
	g := Guard(newStub(false))
	var want []ID
	for i := 0; i < 10; i++ {
		v, _ := g.AddVertex(nil)
		want = append(want, v)
	}
	it := g.Vertices()
	for _, v := range want {
		g.RemoveVertex(v)
	}
	if n := Drain(it); n != len(want) {
		t.Fatalf("snapshot iterator yielded %d, want %d", n, len(want))
	}
	if n, _ := g.CountVertices(); n != 0 {
		t.Fatalf("mutations lost: %d vertices", n)
	}
}

// TestGuardForwardsCapabilities checks the write grant passes
// through the wrapper.
func TestGuardForwardsCapabilities(t *testing.T) {
	s := newStub(false)
	g := Guard(s)
	if !g.ConcurrentWrites() {
		t.Fatal("ConcurrentWrites grant not forwarded")
	}
}
