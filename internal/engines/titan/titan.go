// Package titan implements the hybrid engine modelled on Titan over
// Cassandra as the paper characterizes it: the graph is a collection of
// adjacency lists stored in a log-structured column store
// (internal/lsm plays the Cassandra role).
//
// Architecture reproduced (Section 3.2):
//
//   - each vertex is a row; its properties and its incident edges are
//     columns of that row, so every edge traversal goes through the
//     row-key index (memtable + SSTable probes);
//   - neighbour vertex IDs inside adjacency columns are delta/varint
//     encoded — the compaction trick that makes Titan the most space-
//     efficient engine on hub-heavy graphs (Figure 1);
//   - deletes write tombstones instead of removing data, which is why
//     Titan is *faster* at deletion than at insertion in Figure 3;
//   - writes pass through consistency checks and the storage
//     serialization path, making single-item CUD among the slowest of
//     the study;
//   - v0.5 performs per-write existence/duplicate read-checks (the
//     "consistency checks and schema inference" the paper disabled for
//     loading); v1.0 drops part of that and adds a row cache, which is
//     what made some cached complex queries look unrepresentatively
//     fast (Section 6.3).
package titan

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/engines/kit"
	"repro/internal/lsm"
)

// Version selects the modelled Titan release.
type Version int

// Supported versions.
const (
	V05 Version = iota // consistency checks on writes, no row cache
	V10                // production release: row cache, leaner writes
)

// Key layout: tag(1) | object id (8, big-endian) | column kind (1) | ...
const (
	tagVertexRow = 'V'
	tagEdgeRow   = 'E'
)

const (
	colExists  byte = iota
	colProp         // | propTok(4) -> value
	colOutEdge      // | labelTok(4) | varint(zigzag(dst-id)) varint(eid)
	colInEdge       // | labelTok(4) | varint(zigzag(src-id)) varint(eid)
)

// rowPrefixLen is tag+id+colkind — the row-cache granularity.
const rowPrefixLen = 10

// Engine is a Titan-style columnar graph store.
type Engine struct {
	core.PlanStatsHolder

	version Version
	store
	closed bool
}

// store is the engine's data: New starts it empty, and Close swaps it
// for an empty one so that a closed engine pins nothing.
type store struct {
	kv *lsm.Store

	labels   kit.Tokens
	propKeys kit.Tokens

	nextID int64

	vindex kit.PropIndex // graph-centric indexes
}

// storeOptions are the LSM knobs of the version: titan-1.0 adds the
// row cache.
func storeOptions(v Version) lsm.Options {
	opts := lsm.DefaultOptions()
	if v == V10 {
		opts.CachePrefixLen = rowPrefixLen
	}
	return opts
}

func newStore(v Version) store { return store{kv: lsm.New(storeOptions(v))} }

// New returns an empty engine of the given version.
func New(v Version) *Engine { return &Engine{version: v, store: newStore(v)} }

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	name, gremlin := "titan-0.5", "2.6"
	if e.version == V10 {
		name, gremlin = "titan-1.0", "3.0"
	}
	return core.EngineMeta{
		Name:          name,
		Kind:          core.KindHybrid,
		Substrate:     "Columnar",
		Storage:       "Vertex-indexed adjacency list",
		EdgeTraversal: "Row-key index",
		Gremlin:       gremlin,
		Execution:     "Programming API, optimized",
		Optimized:     true,
	}
}

// --- key construction ---

// The constructors encode into a buffer of constant capacity: inlined
// into a caller that hands the result to the store, which copies it,
// the buffer stays on that caller's stack.

func rowKey(tag byte, id core.ID, kind byte) []byte {
	return appendRowKey(make([]byte, 0, rowPrefixLen), tag, id, kind)
}

func appendRowKey(k []byte, tag byte, id core.ID, kind byte) []byte {
	k = append(k, tag)
	k = enc.Uint64(k, uint64(id))
	return append(k, kind)
}

func propKey(tag byte, id core.ID, tok uint32) []byte {
	return appendPropKey(make([]byte, 0, rowPrefixLen+4), tag, id, tok)
}

func appendPropKey(k []byte, tag byte, id core.ID, tok uint32) []byte {
	return binary.BigEndian.AppendUint32(appendRowKey(k, tag, id, colProp), tok)
}

// appendEdgeColPrefix appends the adjacency columns' prefix for one
// label: the row key plus the label token.
func appendEdgeColPrefix(k []byte, id core.ID, kind byte, tok uint32) []byte {
	return binary.BigEndian.AppendUint32(appendRowKey(k, tagVertexRow, id, kind), tok)
}

// edgeColKey encodes the adjacency column: the neighbour is stored as a
// zigzag varint *delta* from the row's own id — the compact-ID encoding
// behind Titan's space advantage on high-degree graphs.
func edgeColKey(id core.ID, kind byte, tok uint32, other core.ID, eid core.ID) []byte {
	return appendEdgeColKey(make([]byte, 0, rowPrefixLen+4+2*binary.MaxVarintLen64), id, kind, tok, other, eid)
}

func appendEdgeColKey(k []byte, id core.ID, kind byte, tok uint32, other core.ID, eid core.ID) []byte {
	k = appendEdgeColPrefix(k, id, kind, tok)
	k = binary.AppendVarint(k, int64(other)-int64(id))
	return binary.AppendVarint(k, int64(eid))
}

// parseEdgeCol decodes labelTok, neighbour, and edge id from an
// adjacency column key of row id.
func parseEdgeCol(id core.ID, key []byte) (tok uint32, other core.ID, eid core.ID) {
	rest := key[rowPrefixLen:]
	tok = binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	delta, n := binary.Varint(rest)
	eidv, _ := binary.Varint(rest[n:])
	return tok, core.ID(int64(id) + delta), core.ID(eidv)
}

// --- value encoding ---

// encodeValue, like the key constructors, stays on the caller's stack
// unless the encoding outgrows its 32 bytes.
func encodeValue(v core.Value) []byte { return appendValue(make([]byte, 0, 32), v) }

func appendValue(out []byte, v core.Value) []byte {
	out = append(out, byte(v.Kind()))
	switch v.Kind() {
	case core.KindString:
		out = append(out, v.Str()...)
	case core.KindInt:
		out = binary.BigEndian.AppendUint64(out, uint64(v.Int()))
	case core.KindFloat:
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(v.Float()))
	case core.KindBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		out = append(out, b)
	}
	return out
}

func decodeValue(b []byte) core.Value {
	if len(b) == 0 {
		return core.Nil
	}
	switch core.Kind(b[0]) {
	case core.KindString:
		return core.S(string(b[1:]))
	case core.KindInt:
		return core.I(int64(binary.BigEndian.Uint64(b[1:])))
	case core.KindFloat:
		return core.F(math.Float64frombits(binary.BigEndian.Uint64(b[1:])))
	case core.KindBool:
		return core.B(b[1] == 1)
	default:
		return core.Nil
	}
}

// edge row value: src(8) dst(8) labelTok(4)
func encodeEdgeRow(src, dst core.ID, tok uint32) []byte {
	return appendEdgeRow(make([]byte, 0, 20), src, dst, tok)
}

func appendEdgeRow(out []byte, src, dst core.ID, tok uint32) []byte {
	out = binary.BigEndian.AppendUint64(out, uint64(src))
	out = binary.BigEndian.AppendUint64(out, uint64(dst))
	return binary.BigEndian.AppendUint32(out, tok)
}

func decodeEdgeRow(b []byte) (src, dst core.ID, tok uint32) {
	return core.ID(binary.BigEndian.Uint64(b)),
		core.ID(binary.BigEndian.Uint64(b[8:])),
		binary.BigEndian.Uint32(b[16:])
}

// ConcurrentWrites implements core.ConcurrentWriter: the LSM store's
// read-side row cache is internally locked and never affects results,
// so under core.Guard's exclusive-writer discipline mixed read/write
// workloads are serial-schedule consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
