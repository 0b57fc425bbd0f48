// Package blaze implements the hybrid engine modelled on BlazeGraph as
// the paper characterizes it: an RDF statement store serving a property
// graph through reification.
//
// Architecture reproduced (Section 3.2):
//
//   - all data is Subject-Predicate-Object statements over a term
//     dictionary; every statement is indexed three times (SPO, POS, OSP
//     B+Trees);
//   - edges are *reified*: an edge is a resource E with statements
//     (E, rdf:subject, src), (E, rdf:predicate, label),
//     (E, rdf:object, dst), so traversing one edge needs several B+Tree
//     accesses;
//   - a journal file pre-allocated in fixed-size segments backs the
//     store — together with the triple indexes this is why the paper
//     measures ~3× the space of any other engine;
//   - each fine-grained insert rebalances all three trees ("updates and
//     balances its B+Tree index structure after every insertion"),
//     making per-item loading orders of magnitude slower; BulkLoad uses
//     the explicit bulk-build path the paper had to enable;
//   - Gremlin steps are executed one by one against the graph API, never
//     compiled to SPARQL, so whole-graph steps (label search, property
//     search) iterate and probe per object — the source of this engine's
//     chronic timeouts;
//   - there are no user-controlled attribute indexes
//     (BuildVertexPropIndex returns core.ErrUnsupported, as the paper
//     notes "BlazeGraph provides no such capability").
package blaze

import (
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/engines/kit"
)

// Term tags (top byte of a term ID).
const (
	tagVertex  = 1
	tagEdge    = 2
	tagPred    = 3
	tagLiteral = 4
)

func mkTerm(tag byte, seq int64) int64 { return int64(tag)<<56 | seq }
func termTag(t int64) byte             { return byte(t >> 56) }
func termSeq(t int64) int64            { return t & (1<<56 - 1) }

// Well-known predicate sequence numbers.
const (
	predType = iota // rdf:type
	predSubject
	predPredicate
	predObject
	predFirstUser // first user predicate (property names, labels)
)

// Well-known literal: the ":Vertex" class object.
const litVertexClass = 0

// journalSegment is the fixed pre-allocation unit of the backing
// journal file.
const journalSegment = 1 << 20

type statement struct{ s, p, o int64 }

// Engine is a BlazeGraph-style RDF statement store.
type Engine struct {
	core.PlanStatsHolder
	store
	closed bool
}

// store is the engine's data: New starts it empty, and Close swaps it
// for an empty one so that a closed engine pins nothing.
type store struct {
	spo, pos, osp *btree.Tree

	// Term dictionary.
	preds   kit.Tokens // user predicates: term seq = token + predFirstUser
	lits    map[core.Value]int64
	litVals []core.Value
	nextV   int64
	nextE   int64

	journalUsed int64 // bytes written
	journalCap  int64 // bytes pre-allocated (fixed segments)
}

func newStore() store {
	// The vertex-class literal is reserved at seq 0.
	return store{
		spo:        btree.New(),
		pos:        btree.New(),
		osp:        btree.New(),
		lits:       map[core.Value]int64{core.S(":Vertex"): mkTerm(tagLiteral, litVertexClass)},
		litVals:    []core.Value{core.S(":Vertex")},
		journalCap: journalSegment,
	}
}

// New returns an empty engine.
func New() *Engine { return &Engine{store: newStore()} }

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "blaze",
		Kind:          core.KindHybrid,
		Substrate:     "RDF",
		Storage:       "RDF statements (SPO/POS/OSP B+Trees)",
		EdgeTraversal: "B+Tree",
		Gremlin:       "3.2",
		Execution:     "Programming API, non-optimized",
	}
}

func (e *Engine) pred(name string) int64 {
	return mkTerm(tagPred, int64(e.preds.Intern(name))+predFirstUser)
}

// predOf is pred for reads: it never adds a term to the dictionary.
func (e *Engine) predOf(name string) (int64, bool) {
	tok, ok := e.preds.Lookup(name)
	return mkTerm(tagPred, int64(tok)+predFirstUser), ok
}

func (e *Engine) predName(t int64) string {
	seq := termSeq(t)
	if seq < predFirstUser {
		return [...]string{"rdf:type", "rdf:subject", "rdf:predicate", "rdf:object"}[seq]
	}
	return e.preds.Name(uint32(seq - predFirstUser))
}

func (e *Engine) literal(v core.Value) int64 {
	if t, ok := e.lits[v]; ok {
		return t
	}
	t := mkTerm(tagLiteral, int64(len(e.litVals)))
	e.lits[v] = t
	e.litVals = append(e.litVals, v)
	return t
}

func (e *Engine) literalValue(t int64) core.Value { return e.litVals[termSeq(t)] }

// Statement keys are order-preserving int64 terms. The trees copy what
// they store, so writes, read probes and prefixes all encode into a
// caller's stack buffer (var buf [24]byte; appendKey(buf[:0], …)).
func appendKey(k []byte, terms ...int64) []byte {
	for _, t := range terms {
		k = enc.Int64(k, t)
	}
	return k
}

func decode3(k []byte) (a, b, c int64) {
	a, k = enc.TakeInt64(k)
	b, k = enc.TakeInt64(k)
	c, _ = enc.TakeInt64(k)
	return
}

// addStatement inserts st into all three indexes and appends it to the
// journal, growing the journal by a fixed segment when full — the
// eager, per-statement path the paper measured as up to three orders of
// magnitude slower than other loaders.
func (e *Engine) addStatement(st statement) {
	var buf [24]byte
	e.spo.Put(appendKey(buf[:0], st.s, st.p, st.o), nil)
	e.pos.Put(appendKey(buf[:0], st.p, st.o, st.s), nil)
	e.osp.Put(appendKey(buf[:0], st.o, st.s, st.p), nil)
	e.journalUsed += 3 * 25 // serialized statement + record header, ×3 indexes
	for e.journalUsed > e.journalCap {
		e.journalCap += journalSegment
	}
}

func (e *Engine) removeStatement(st statement) bool {
	var buf [24]byte
	ok := e.spo.Delete(appendKey(buf[:0], st.s, st.p, st.o))
	e.pos.Delete(appendKey(buf[:0], st.p, st.o, st.s))
	e.osp.Delete(appendKey(buf[:0], st.o, st.s, st.p))
	// The journal is append-only: deletion writes a retraction record.
	if ok {
		e.journalUsed += 25
		for e.journalUsed > e.journalCap {
			e.journalCap += journalSegment
		}
	}
	return ok
}

func (e *Engine) hasStatement(st statement) bool {
	var buf [24]byte
	return e.spo.Has(appendKey(buf[:0], st.s, st.p, st.o))
}

// forSP iterates objects of (s, p, *).
func (e *Engine) forSP(s, p int64, fn func(o int64) bool) {
	var buf [24]byte
	e.spo.AscendPrefix(appendKey(buf[:0], s, p), func(k, _ []byte) bool {
		_, _, o := decode3(k)
		return fn(o)
	})
}

// forPO iterates subjects of (*, p, o).
func (e *Engine) forPO(p, o int64, fn func(s int64) bool) {
	var buf [24]byte
	e.pos.AscendPrefix(appendKey(buf[:0], p, o), func(k, _ []byte) bool {
		_, _, s := decode3(k)
		return fn(s)
	})
}

// forS iterates (p, o) pairs of (s, *, *).
func (e *Engine) forS(s int64, fn func(p, o int64) bool) {
	var buf [24]byte
	e.spo.AscendPrefix(appendKey(buf[:0], s), func(k, _ []byte) bool {
		_, p, o := decode3(k)
		return fn(p, o)
	})
}

// firstSP returns the first object of (s, p, *).
func (e *Engine) firstSP(s, p int64) (int64, bool) {
	var out int64
	found := false
	e.forSP(s, p, func(o int64) bool { out, found = o, true; return false })
	return out, found
}

// ConcurrentWrites implements core.ConcurrentWriter: the statement
// indexes are mutated only by write operations, and read paths keep no
// shared state, so under core.Guard's exclusive-writer discipline
// mixed read/write workloads are serial-schedule consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
