package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed interval of the traced run. Engine-call spans are
// leaves: an iterator's pulls are folded into the span of the call
// that returned it, so Dur is the time spent inside the engine and
// Calls counts the call plus its pulls.
type span struct {
	Name   string `json:"name"`
	Engine string `json:"engine,omitempty"` // set on engine-call spans
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Parent int32  `json:"parent"` // index of the span that caused this one, -1 for a root
	Op     int32  `json:"op"`     // schedule position shared by an operation's spans, -1 outside one
	Calls  int32  `json:"calls"`
}

// maxSpans bounds trace.json: a full-scan query is one engine call per
// vertex, so an unbounded trace would outgrow memory within seconds.
// Aggregates (busy time, calls, rows) keep counting past the cap.
const maxSpans = 200_000

// engineAgg adds up what the traced instances of one engine did: time
// inside engine calls (load of it inside BulkLoad), calls including
// iterator pulls, and elements the iterators yielded.
type engineAgg struct {
	busy, load  time.Duration
	calls, rows int64
}

// tracer records spans in memory and aggregates engine time per
// engine. The mutex is for serve, whose two clients call one traced
// engine.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	recorded int64 // spans seen, including those beyond maxSpans
	parent   int32 // span engine calls attach to
	op       int32
	aggs     map[string]*engineAgg
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), parent: -1, op: -1, aggs: map[string]*engineAgg{}}
}

// agg returns a copy of the named engine's totals so far.
func (t *tracer) agg(engine string) engineAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[engine]; a != nil {
		return *a
	}
	return engineAgg{}
}

// sub is the work done between two agg snapshots.
func (a engineAgg) sub(before engineAgg) engineAgg {
	return engineAgg{a.busy - before.busy, a.load - before.load, a.calls - before.calls, a.rows - before.rows}
}

func (t *tracer) add(s span) int32 {
	t.recorded++
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// begin opens a span that later engine calls attach to and returns a
// function closing it; op is the schedule position, -1 for a phase.
func (t *tracer) begin(name string, op int32) (end func()) {
	t.mu.Lock()
	start := time.Now()
	prevParent, prevOp := t.parent, t.op
	idx := t.add(span{Name: name, Start: int64(start.Sub(t.epoch)), Parent: prevParent, Op: op})
	if idx >= 0 {
		t.parent = idx
	}
	t.op = op
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		if idx >= 0 {
			t.spans[idx].Dur = int64(time.Since(start))
		}
		t.parent, t.op = prevParent, prevOp
		t.mu.Unlock()
	}
}

// call records one engine call that took d and returns the span index
// an iterator folds its pulls into.
func (t *tracer) call(a *engineAgg, engine, method string, start time.Time, d time.Duration) int32 {
	t.mu.Lock()
	idx := t.add(span{Name: method, Engine: engine, Start: int64(start.Sub(t.epoch)), Dur: int64(d), Parent: t.parent, Op: t.op, Calls: 1})
	a.busy += d
	a.calls++
	t.mu.Unlock()
	return idx
}

func (t *tracer) pull(a *engineAgg, idx int32, d time.Duration, yielded bool) {
	t.mu.Lock()
	if idx >= 0 {
		t.spans[idx].Dur += int64(d)
		t.spans[idx].Calls++
	}
	a.busy += d
	a.calls++
	if yielded {
		a.rows++
	}
	t.mu.Unlock()
}

func (t *tracer) writeJSON(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedEngine is the decorator of the traced run: every core.Engine
// method is forwarded inside a span. It forwards the three optional
// capabilities with the defaults their absence means (see core.Guard),
// so plans, fan-out decisions and serve's mix check do not change.
type tracedEngine struct {
	inner core.Engine
	name  string
	t     *tracer
	a     *engineAgg // shared by every traced instance of the engine
}

var (
	_ core.Engine            = (*tracedEngine)(nil)
	_ core.ConcurrentReader  = (*tracedEngine)(nil)
	_ core.ConcurrentWriter  = (*tracedEngine)(nil)
	_ core.PlanStatsProvider = (*tracedEngine)(nil)
)

// traced wraps e when the run is traced and returns it unchanged
// otherwise.
func (env *env) traced(name string, e core.Engine) core.Engine {
	t := env.tr
	if t == nil {
		return e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aggs[name] == nil {
		t.aggs[name] = &engineAgg{}
	}
	return &tracedEngine{inner: e, name: name, t: t, a: t.aggs[name]}
}

func (e *tracedEngine) ConcurrentReads() bool {
	if cr, ok := e.inner.(core.ConcurrentReader); ok {
		return cr.ConcurrentReads()
	}
	return true
}

func (e *tracedEngine) ConcurrentWrites() bool {
	if cw, ok := e.inner.(core.ConcurrentWriter); ok {
		return cw.ConcurrentWrites()
	}
	return false
}

func (e *tracedEngine) PlanStats() *core.PlanStats {
	if p, ok := e.inner.(core.PlanStatsProvider); ok {
		return p.PlanStats()
	}
	return nil
}

// Meta is static metadata, not work: it is forwarded without a span.
func (e *tracedEngine) Meta() core.EngineMeta { return e.inner.Meta() }

// do times one engine call.
func do[T any](e *tracedEngine, method string, fn func() T) T {
	start := time.Now()
	v := fn()
	e.t.call(e.a, e.name, method, start, time.Since(start))
	return v
}

// do2 is do for the (value, error) and (value, bool) shapes.
func do2[A, B any](e *tracedEngine, method string, fn func() (A, B)) (A, B) {
	start := time.Now()
	a, b := fn()
	e.t.call(e.a, e.name, method, start, time.Since(start))
	return a, b
}

// iter times the call that builds an iterator and folds every pull
// into that call's span.
func iter(e *tracedEngine, method string, fn func() core.Iter[core.ID]) core.Iter[core.ID] {
	start := time.Now()
	it := fn()
	idx := e.t.call(e.a, e.name, method, start, time.Since(start))
	return func() (core.ID, bool) {
		start := time.Now()
		id, ok := it()
		e.t.pull(e.a, idx, time.Since(start), ok)
		return id, ok
	}
}

func (e *tracedEngine) AddVertex(p core.Props) (core.ID, error) {
	return do2(e, "AddVertex", func() (core.ID, error) { return e.inner.AddVertex(p) })
}

func (e *tracedEngine) AddEdge(src, dst core.ID, label string, p core.Props) (core.ID, error) {
	return do2(e, "AddEdge", func() (core.ID, error) { return e.inner.AddEdge(src, dst, label, p) })
}

func (e *tracedEngine) HasVertex(id core.ID) bool {
	return do(e, "HasVertex", func() bool { return e.inner.HasVertex(id) })
}

func (e *tracedEngine) HasEdge(id core.ID) bool {
	return do(e, "HasEdge", func() bool { return e.inner.HasEdge(id) })
}

func (e *tracedEngine) VertexProps(id core.ID) (core.Props, error) {
	return do2(e, "VertexProps", func() (core.Props, error) { return e.inner.VertexProps(id) })
}

func (e *tracedEngine) EdgeProps(id core.ID) (core.Props, error) {
	return do2(e, "EdgeProps", func() (core.Props, error) { return e.inner.EdgeProps(id) })
}

func (e *tracedEngine) VertexProp(id core.ID, name string) (core.Value, bool) {
	return do2(e, "VertexProp", func() (core.Value, bool) { return e.inner.VertexProp(id, name) })
}

func (e *tracedEngine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	return do2(e, "EdgeProp", func() (core.Value, bool) { return e.inner.EdgeProp(id, name) })
}

func (e *tracedEngine) EdgeLabel(id core.ID) (string, error) {
	return do2(e, "EdgeLabel", func() (string, error) { return e.inner.EdgeLabel(id) })
}

func (e *tracedEngine) EdgeEnds(id core.ID) (src, dst core.ID, err error) {
	start := time.Now()
	src, dst, err = e.inner.EdgeEnds(id)
	e.t.call(e.a, e.name, "EdgeEnds", start, time.Since(start))
	return src, dst, err
}

func (e *tracedEngine) SetVertexProp(id core.ID, name string, v core.Value) error {
	return do(e, "SetVertexProp", func() error { return e.inner.SetVertexProp(id, name, v) })
}

func (e *tracedEngine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	return do(e, "SetEdgeProp", func() error { return e.inner.SetEdgeProp(id, name, v) })
}

func (e *tracedEngine) RemoveVertex(id core.ID) error {
	return do(e, "RemoveVertex", func() error { return e.inner.RemoveVertex(id) })
}

func (e *tracedEngine) RemoveEdge(id core.ID) error {
	return do(e, "RemoveEdge", func() error { return e.inner.RemoveEdge(id) })
}

func (e *tracedEngine) RemoveVertexProp(id core.ID, name string) error {
	return do(e, "RemoveVertexProp", func() error { return e.inner.RemoveVertexProp(id, name) })
}

func (e *tracedEngine) RemoveEdgeProp(id core.ID, name string) error {
	return do(e, "RemoveEdgeProp", func() error { return e.inner.RemoveEdgeProp(id, name) })
}

func (e *tracedEngine) CountVertices() (int64, error) {
	return do2(e, "CountVertices", e.inner.CountVertices)
}

func (e *tracedEngine) CountEdges() (int64, error) {
	return do2(e, "CountEdges", e.inner.CountEdges)
}

func (e *tracedEngine) Vertices() core.Iter[core.ID] { return iter(e, "Vertices", e.inner.Vertices) }

func (e *tracedEngine) Edges() core.Iter[core.ID] { return iter(e, "Edges", e.inner.Edges) }

func (e *tracedEngine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	return iter(e, "VerticesByProp", func() core.Iter[core.ID] { return e.inner.VerticesByProp(name, v) })
}

func (e *tracedEngine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	return iter(e, "EdgesByProp", func() core.Iter[core.ID] { return e.inner.EdgesByProp(name, v) })
}

func (e *tracedEngine) EdgesByLabel(label string) core.Iter[core.ID] {
	return iter(e, "EdgesByLabel", func() core.Iter[core.ID] { return e.inner.EdgesByLabel(label) })
}

func (e *tracedEngine) Neighbors(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return iter(e, "Neighbors", func() core.Iter[core.ID] { return e.inner.Neighbors(id, d, labels...) })
}

func (e *tracedEngine) IncidentEdges(id core.ID, d core.Direction, labels ...string) core.Iter[core.ID] {
	return iter(e, "IncidentEdges", func() core.Iter[core.ID] { return e.inner.IncidentEdges(id, d, labels...) })
}

func (e *tracedEngine) Degree(id core.ID, d core.Direction) (int64, error) {
	return do2(e, "Degree", func() (int64, error) { return e.inner.Degree(id, d) })
}

func (e *tracedEngine) BuildVertexPropIndex(name string) error {
	return do(e, "BuildVertexPropIndex", func() error { return e.inner.BuildVertexPropIndex(name) })
}

func (e *tracedEngine) HasVertexPropIndex(name string) bool {
	return do(e, "HasVertexPropIndex", func() bool { return e.inner.HasVertexPropIndex(name) })
}

func (e *tracedEngine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	start := time.Now()
	res, err := e.inner.BulkLoad(g)
	d := time.Since(start)
	e.t.call(e.a, e.name, "BulkLoad", start, d)
	e.t.mu.Lock()
	e.a.load += d
	e.t.mu.Unlock()
	return res, err
}

func (e *tracedEngine) SpaceUsage() core.SpaceReport {
	return do(e, "SpaceUsage", e.inner.SpaceUsage)
}

func (e *tracedEngine) Close() error { return do(e, "Close", e.inner.Close) }
