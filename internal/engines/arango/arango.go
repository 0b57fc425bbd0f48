// Package arango implements the hybrid engine modelled on ArangoDB 2.8
// as the paper characterizes it: a document store exposed over REST,
// with graph semantics layered on JSON documents.
//
// Architecture reproduced (Section 3.2):
//
//   - every vertex and edge is a self-contained serialized JSON
//     document;
//   - a specialized hash index keyed on edge IDs gives the source,
//     destination and label of each edge without deserializing it,
//     accelerating traversals;
//   - the client/server split is simulated by actually passing every
//     interactive operation's request and response through a JSON codec
//     (the V8 server boundary) — this is the genuine per-operation cost
//     that made per-item Gremlin loading "prohibitively slow" in the
//     paper and why the suite loads via the native bulk path instead;
//   - writes are acknowledged before any durability work (the paper
//     notes updates are registered in RAM and flushed asynchronously,
//     biasing CUD timings in ArangoDB's favour — the same bias exists
//     here: no journal work happens on the write path);
//   - whole-graph edge operations must materialize (deserialize) every
//     edge document, which is why edge iteration rarely finished within
//     the paper's timeout;
//   - every property read decodes the whole document and every property
//     write re-encodes it. Documents go through graphson's flat-object
//     codec (AppendObject/DecodeObject), whose bytes are exactly
//     encoding/json's, so document sizes are unchanged; what it leaves
//     out — reflection, an intermediate map[string]any, decoder buffers —
//     is not something the paper measures. A property JSON cannot carry
//     (a non-finite float) or named like one of the document's own
//     fields (_key; on edges also _from, _to, _label) is refused;
//   - attribute indexes are accepted but change nothing ("ArangoDB
//     showed no difference in running times, so we suspect some defect
//     in the Gremlin implementation").
package arango

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engines/kit"
	"repro/internal/graphson"
)

// Engine is an ArangoDB-style document graph store.
type Engine struct {
	core.PlanStatsHolder
	store
	closed bool

	// restBytes is atomic: every read operation crosses the simulated
	// REST boundary, and reads may run concurrently (core.Engine).
	restBytes atomic.Int64 // total bytes through the simulated REST boundary
}

// store is the engine's data: New starts it empty, and Close swaps it
// for an empty one so that a closed engine pins nothing.
type store struct {
	nextID int64
	vdocs  map[core.ID][]byte
	edocs  map[core.ID][]byte

	// Edge hash index: endpoints and label token per edge, plus
	// adjacency lists of edge IDs per vertex.
	edgeIdx map[core.ID]edgeEntry
	outIdx  map[core.ID][]core.ID
	inIdx   map[core.ID][]core.ID

	labels kit.Tokens

	// Attribute indexes are accepted, but the search path does not
	// change (the paper measured no difference).
	kit.DeclaredIndexes
	scratch []byte // encode buffer, reused by every write
}

type edgeEntry struct {
	src, dst core.ID
	label    uint32
}

func newStore() store {
	return store{
		vdocs:   make(map[core.ID][]byte),
		edocs:   make(map[core.ID][]byte),
		edgeIdx: make(map[core.ID]edgeEntry),
		outIdx:  make(map[core.ID][]core.ID),
		inIdx:   make(map[core.ID][]core.ID),
	}
}

// New returns an empty engine.
func New() *Engine { return &Engine{store: newStore()} }

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "arango",
		Kind:          core.KindHybrid,
		Substrate:     "Document",
		Storage:       "Serialized JSON",
		EdgeTraversal: "Hash index",
		Gremlin:       "2.6",
		Execution:     "AQL, non-optimized (REST/V8 server)",
	}
}

// rest pushes a payload through the simulated client/server JSON
// boundary: marshalled on one side, unmarshalled on the other. Every
// interactive operation calls it once for the request and once for the
// response.
func (e *Engine) rest(payload any) {
	b, err := json.Marshal(payload)
	if err != nil {
		return
	}
	e.restBytes.Add(int64(len(b)))
	var sink any
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	_ = dec.Decode(&sink)
}

type request struct {
	Op    string `json:"op"`
	ID    int64  `json:"id,omitempty"`
	Other int64  `json:"other,omitempty"`
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`
}

func (e *Engine) call(op string, id core.ID, args ...string) {
	r := request{Op: op, ID: int64(id)}
	if len(args) > 0 {
		r.Name = args[0]
	}
	if len(args) > 1 {
		r.Value = args[1]
	}
	e.rest(&r)
}

// --- document encoding (JSON, as stored) ---

// A document's system fields, in key order: the order encode hands
// them to graphson.AppendObject in. A property cannot take one of its
// document's system-field names.
const (
	fieldFrom  = "_from"
	fieldKey   = "_key"
	fieldLabel = "_label"
	fieldTo    = "_to"
)

func (e *Engine) encodeVertexDoc(id core.ID, p core.Props) ([]byte, error) {
	return e.encode(p, graphson.Field{Name: fieldKey, Value: core.I(int64(id))})
}

func (e *Engine) encodeEdgeDoc(id core.ID, src, dst core.ID, label string, p core.Props) ([]byte, error) {
	return e.encode(p,
		graphson.Field{Name: fieldFrom, Value: core.I(int64(src))},
		graphson.Field{Name: fieldKey, Value: core.I(int64(id))},
		graphson.Field{Name: fieldLabel, Value: core.S(label)},
		graphson.Field{Name: fieldTo, Value: core.I(int64(dst))})
}

// encode serializes a whole document through the engine's scratch
// buffer (writes are exclusive, so one buffer serves them all) and
// returns a copy sized to the document.
func (e *Engine) encode(p core.Props, sys ...graphson.Field) ([]byte, error) {
	b, err := graphson.AppendObject(e.scratch[:0], p, sys...)
	if err != nil {
		return nil, fmt.Errorf("arango: %w", err)
	}
	e.scratch = b
	return bytes.Clone(b), nil
}

// decodeVertexDoc and decodeEdgeDoc deserialize a stored document into
// its property set — the materialization step whose cost dominates
// whole-graph edge operations on this engine.
func decodeVertexDoc(doc []byte) (core.Props, error) {
	return graphson.DecodeObject(doc, fieldKey)
}

func decodeEdgeDoc(doc []byte) (core.Props, error) {
	return graphson.DecodeObject(doc, fieldFrom, fieldKey, fieldLabel, fieldTo)
}

// ConcurrentWrites implements core.ConcurrentWriter: the document
// store keeps no result-affecting read-side state (the REST-boundary
// accounting is an atomic byte counter), so under core.Guard's
// exclusive-writer discipline mixed read/write workloads observe
// serial-schedule-consistent documents and adjacency lists.
func (e *Engine) ConcurrentWrites() bool { return true }
