// Package neo implements the native graph engine modelled on Neo4j's
// storage architecture as the paper describes it (Section 3.2):
//
//   - one store file of fixed-size records per object family (nodes,
//     relationships, properties), where the record ID is the offset —
//     fetching a record is a multiply and a slice;
//   - node records point at the head of a doubly-linked list of
//     relationship records, so enumerating a vertex's edges costs O(deg)
//     independent of graph size ("index-free adjacency");
//   - property values are off-loaded to a property chain store with
//     string payloads in a separate dynamic store, keeping the
//     structural records small — the separation of structure from data
//     whose benefits Section 6 highlights.
//
// Two versions are provided, matching the paper's pairing:
//
//   - V19 ("Neo4j 1.9"): a single relationship chain per node and direct
//     API calls — very fast CUD and unfiltered traversals.
//   - V30 ("Neo4j 3.0"): relationship chains split by (type, direction)
//     through group records — faster label-filtered traversal, but
//     unfiltered scans walk the groups, and every CUD call pays the
//     TinkerPop wrapper's transaction bootstrap that the paper
//     identifies as the regression between versions.
package neo

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/engines/kit"
	"repro/internal/pagefile"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Version selects the modelled Neo4j release.
type Version int

// Supported versions.
const (
	V19 Version = iota // single relationship chain, direct API
	V30                // per-(type,direction) chains + wrapper transactions
)

const nilRef = int64(-1)

// Record layouts (little-endian). Sizes chosen to match the information
// content of the real stores, not their exact byte counts.
const (
	// node record: firstRel|firstGroup (8) + firstProp (8)
	nodeRecSize = 16
	// relationship record:
	// src(8) dst(8) type(4) srcPrev(8) srcNext(8) dstPrev(8) dstNext(8) firstProp(8)
	relRecSize = 60
	// property record: next(8) keyTok(4) kind(1) payload(8)
	propRecSize = 21
	// group record (V30): type(4) next(8) firstOut(8) firstIn(8)
	groupRecSize = 28
)

// Engine is a Neo4j-style native graph store.
type Engine struct {
	core.PlanStatsHolder

	version Version
	store
	closed bool
}

// store is the engine's data: New starts it empty, and Close swaps it
// for an empty one so that a closed engine pins nothing.
type store struct {
	nodes  *pagefile.Store
	rels   *pagefile.Store
	props  *pagefile.Store
	groups *pagefile.Store // V30 only
	strs   *pagefile.Heap  // dynamic string store

	labels   kit.Tokens // relationship type tokens
	propKeys kit.Tokens // property key tokens

	// User-controlled attribute indexes on vertex properties
	// (Section 6.4 "Effect of Indexing").
	vindex kit.PropIndex
}

func newStore(v Version) store {
	s := store{
		nodes: pagefile.NewStore(nodeRecSize),
		rels:  pagefile.NewStore(relRecSize),
		props: pagefile.NewStore(propRecSize),
		strs:  pagefile.NewHeap(),
	}
	if v == V30 {
		s.groups = pagefile.NewStore(groupRecSize)
	}
	return s
}

// New returns an empty engine of the given version.
func New(v Version) *Engine { return &Engine{version: v, store: newStore(v)} }

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	name, gremlin := "neo-1.9", "2.6"
	if e.version == V30 {
		name, gremlin = "neo-3.0", "3.2"
	}
	return core.EngineMeta{
		Name:          name,
		Kind:          core.KindNative,
		Substrate:     "Native",
		Storage:       "Linked fixed-size records",
		EdgeTraversal: "Direct pointer",
		Gremlin:       gremlin,
		Execution:     "Programming API, non-optimized",
	}
}

// --- record field accessors ---

func getI64(rec []byte, off int) int64 { return int64(binary.LittleEndian.Uint64(rec[off:])) }
func putI64(rec []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(rec[off:], uint64(v))
}
func getU32(rec []byte, off int) uint32 { return binary.LittleEndian.Uint32(rec[off:]) }
func putU32(rec []byte, off int, v uint32) {
	binary.LittleEndian.PutUint32(rec[off:], v)
}

// node record fields
func nodeFirstRel(rec []byte) int64       { return getI64(rec, 0) }
func setNodeFirstRel(rec []byte, v int64) { putI64(rec, 0, v) }

const nFirstProp = 8 // the node's property-chain head

// relationship record fields
const (
	rSrc       = 0
	rDst       = 8
	rType      = 16
	rSrcPrev   = 20
	rSrcNext   = 28
	rDstPrev   = 36
	rDstNext   = 44
	rFirstProp = 52
)

// group record fields (V30)
const (
	gType     = 0
	gNext     = 4
	gFirstOut = 12
	gFirstIn  = 20
)

// property record fields
const (
	pNext    = 0
	pKey     = 8
	pKind    = 12
	pPayload = 13
)

// --- wrapper transaction bootstrap (V30) ---

// tx models the per-operation transaction machinery that the TinkerPop
// wrapper of the newer version interposes on every CUD call: allocate a
// transaction context, record undo intents, validate, release. The paper
// attributes the order-of-magnitude CUD regression between versions to
// this bootstrap, not to the storage format.
type tx struct {
	undo    []undoRec
	touched map[int64]struct{}
}

type undoRec struct {
	store int8
	id    int64
	image []byte
}

func (e *Engine) begin() *tx {
	if e.version != V30 {
		return nil
	}
	return &tx{touched: make(map[int64]struct{}, 8)}
}

func (t *tx) record(store int8, id int64, rec []byte) {
	if t == nil {
		return
	}
	if _, dup := t.touched[int64(store)<<56|id]; dup {
		return
	}
	t.touched[int64(store)<<56|id] = struct{}{}
	t.undo = append(t.undo, undoRec{store: store, id: id, image: append([]byte(nil), rec...)})
}

func (t *tx) commit() {
	if t == nil {
		return
	}
	// Validation pass over the undo log (checksum-style touch of every
	// before-image), then release.
	var sum byte
	for i := range t.undo {
		for _, b := range t.undo[i].image {
			sum ^= b
		}
	}
	_ = sum
	t.undo = nil
}

// --- property chains ---

func (e *Engine) propChainGet(first int64, key string) (core.Value, bool) {
	tok, ok := e.propKeys.Lookup(key)
	if !ok {
		return core.Nil, false
	}
	for id := first; id != nilRef; {
		rec, ok := e.props.Record(id)
		if !ok {
			return core.Nil, false
		}
		if getU32(rec, pKey) == tok {
			return e.decodeValue(rec), true
		}
		id = getI64(rec, pNext)
	}
	return core.Nil, false
}

func (e *Engine) propChainAll(first int64) core.Props {
	p := core.Props{}
	for id := first; id != nilRef; {
		rec, ok := e.props.Record(id)
		if !ok {
			break
		}
		p[e.propKeys.Name(getU32(rec, pKey))] = e.decodeValue(rec)
		id = getI64(rec, pNext)
	}
	if len(p) == 0 {
		return nil
	}
	return p
}

// propChainSet updates or prepends; it returns the (possibly new) chain
// head.
func (e *Engine) propChainSet(first int64, key string, v core.Value, t *tx) int64 {
	tok := e.propKeys.Intern(key)
	for id := first; id != nilRef; {
		rec, _ := e.props.Record(id)
		if getU32(rec, pKey) == tok {
			t.record(2, id, rec)
			e.freeValuePayload(rec)
			e.encodeValue(rec, v)
			return first
		}
		id = getI64(rec, pNext)
	}
	id := e.props.Alloc()
	rec, _ := e.props.Record(id)
	putI64(rec, pNext, first)
	putU32(rec, pKey, tok)
	e.encodeValue(rec, v)
	t.record(2, id, rec)
	return id
}

// propChainRemove unlinks key; it returns the new head and whether the
// key existed.
func (e *Engine) propChainRemove(first int64, key string, t *tx) (int64, bool) {
	tok, ok := e.propKeys.Lookup(key)
	if !ok {
		return first, false
	}
	prev := nilRef
	for id := first; id != nilRef; {
		rec, _ := e.props.Record(id)
		next := getI64(rec, pNext)
		if getU32(rec, pKey) == tok {
			t.record(2, id, rec)
			e.freeValuePayload(rec)
			e.props.Free(id)
			if prev == nilRef {
				return next, true
			}
			prevRec, _ := e.props.Record(prev)
			putI64(prevRec, pNext, next)
			return first, true
		}
		prev, id = id, next
	}
	return first, false
}

func (e *Engine) propChainFree(first int64) {
	for id := first; id != nilRef; {
		rec, _ := e.props.Record(id)
		next := getI64(rec, pNext)
		e.freeValuePayload(rec)
		e.props.Free(id)
		id = next
	}
}

func (e *Engine) encodeValue(rec []byte, v core.Value) {
	rec[pKind] = byte(v.Kind())
	switch v.Kind() {
	case core.KindString:
		off := e.strs.Append([]byte(v.Str()))
		putI64(rec, pPayload, off)
	case core.KindInt:
		putI64(rec, pPayload, v.Int())
	case core.KindFloat:
		putI64(rec, pPayload, int64(floatBits(v.Float())))
	case core.KindBool:
		var b int64
		if v.Bool() {
			b = 1
		}
		putI64(rec, pPayload, b)
	default:
		putI64(rec, pPayload, 0)
	}
}

func (e *Engine) decodeValue(rec []byte) core.Value {
	payload := getI64(rec, pPayload)
	switch core.Kind(rec[pKind]) {
	case core.KindString:
		b, _ := e.strs.Read(payload)
		return core.S(string(b))
	case core.KindInt:
		return core.I(payload)
	case core.KindFloat:
		return core.F(bitsFloat(uint64(payload)))
	case core.KindBool:
		return core.B(payload == 1)
	default:
		return core.Nil
	}
}

func (e *Engine) freeValuePayload(rec []byte) {
	if core.Kind(rec[pKind]) == core.KindString {
		e.strs.Delete(getI64(rec, pPayload))
	}
}

// ConcurrentWrites implements core.ConcurrentWriter: record stores and
// relationship chains are touched only by write operations, and read
// paths keep no shared state, so under core.Guard's exclusive-writer
// discipline mixed read/write workloads are serial-schedule
// consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
