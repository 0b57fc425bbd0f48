// Package orient implements the native multi-model engine modelled on
// OrientDB's storage architecture as the paper describes it:
//
//   - records live in *clusters* (append-only files); record identity is
//     a logical RID = (cluster, position) resolved through an append-only
//     position map, so records relocate without changing identity;
//   - there is one cluster for vertices and one cluster *per edge label*
//     — the design that makes loading and space sensitive to edge-label
//     cardinality (the paper's Frb-S observation: ~1.8K labels for only
//     ~300K edges put OrientDB second-to-last in space);
//   - vertices are documents embedding their incident-edge RID lists
//     ("2-hop pointer" traversal: node → edge record → node);
//   - documents are rewritten at the tail on every mutation, which is
//     why node/property insertion is fast but edge insertion — which
//     rewrites both endpoint documents — is slower and erratic, exactly
//     the inconsistency Figure 3(b) shows.
package orient

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/engines/kit"
	"repro/internal/pagefile"
)

// RID packing: cluster in the top 20 bits, position in the low 44.
const posBits = 44

func makeRID(cluster int, pos int64) core.ID {
	return core.ID(int64(cluster)<<posBits | pos)
}

func splitRID(id core.ID) (cluster int, pos int64) {
	return int(int64(id) >> posBits), int64(id) & (1<<posBits - 1)
}

const vertexCluster = 0

type cluster struct {
	heap *pagefile.Heap
	pmap *pagefile.PositionMap
}

func newCluster() *cluster {
	return &cluster{heap: pagefile.NewHeap(), pmap: pagefile.NewPositionMap()}
}

func (c *cluster) add(doc []byte) int64 {
	return c.pmap.Add(c.heap.Append(doc))
}

func (c *cluster) read(pos int64) ([]byte, bool) {
	phys, ok := c.pmap.Get(pos)
	if !ok {
		return nil, false
	}
	return c.heap.Read(phys)
}

// rewrite relocates the document at pos to the tail.
func (c *cluster) rewrite(pos int64, doc []byte) bool {
	phys, ok := c.pmap.Get(pos)
	if !ok {
		return false
	}
	return c.pmap.Move(pos, c.heap.Update(phys, doc))
}

func (c *cluster) free(pos int64) bool {
	phys, ok := c.pmap.Get(pos)
	if !ok {
		return false
	}
	c.heap.Delete(phys)
	return c.pmap.Free(pos)
}

func (c *cluster) bytes() int64 { return c.heap.Bytes() + c.pmap.Bytes() }

func (c *cluster) clone() *cluster {
	return &cluster{heap: c.heap.Clone(), pmap: c.pmap.Clone()}
}

// Engine is an OrientDB-style native graph store.
type Engine struct {
	core.PlanStatsHolder
	store
	closed bool
}

// store is the engine's data: New starts it empty, and Close swaps it
// for an empty one so that a closed engine pins nothing.
type store struct {
	vcluster  *cluster
	eclusters []*cluster // index = cluster id - 1
	labels    kit.Tokens // token = cluster id - 1
	propKeys  kit.Tokens

	// SB-Tree style attribute indexes on vertex properties:
	// name -> value -> set of vertex RIDs.
	vindex kit.PropIndex

	// scratch is where writes encode a document, which the cluster's
	// heap then copies.
	scratch []byte
}

func newStore() store { return store{vcluster: newCluster()} }

// New returns an empty engine.
func New() *Engine { return &Engine{store: newStore()} }

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "orient",
		Kind:          core.KindNative,
		Substrate:     "Native",
		Storage:       "Linked records (clusters + position map)",
		EdgeTraversal: "2-hop pointer",
		Gremlin:       "2.6",
		Execution:     "Mixed",
	}
}

// clusterOf returns the cluster id of an existing label's cluster.
func (e *Engine) clusterOf(label string) (int, bool) {
	tok, ok := e.labels.Lookup(label)
	return int(tok) + 1, ok // cluster ids start at 1
}

func (e *Engine) clusterFor(label string) int {
	tok := e.labels.Intern(label)
	if int(tok) == len(e.eclusters) {
		e.eclusters = append(e.eclusters, newCluster())
	}
	return int(tok) + 1
}

// --- document encoding ---

func appendProps(doc []byte, e *Engine, p core.Props) []byte {
	doc = binary.LittleEndian.AppendUint32(doc, uint32(len(p)))
	for k, v := range p {
		doc = binary.LittleEndian.AppendUint32(doc, e.propKeys.Intern(k))
		doc = append(doc, byte(v.Kind()))
		switch v.Kind() {
		case core.KindString:
			doc = binary.LittleEndian.AppendUint32(doc, uint32(len(v.Str())))
			doc = append(doc, v.Str()...)
		case core.KindInt:
			doc = binary.LittleEndian.AppendUint64(doc, uint64(v.Int()))
		case core.KindFloat:
			doc = binary.LittleEndian.AppendUint64(doc, math.Float64bits(v.Float()))
		case core.KindBool:
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			doc = append(doc, b)
		}
	}
	return doc
}

func readProps(doc []byte, e *Engine) (core.Props, []byte) {
	n := binary.LittleEndian.Uint32(doc)
	doc = doc[4:]
	if n == 0 {
		return nil, doc
	}
	p := make(core.Props, n)
	for i := uint32(0); i < n; i++ {
		tok := binary.LittleEndian.Uint32(doc)
		kind := core.Kind(doc[4])
		doc = doc[5:]
		var v core.Value
		switch kind {
		case core.KindString:
			l := binary.LittleEndian.Uint32(doc)
			v = core.S(string(doc[4 : 4+l]))
			doc = doc[4+l:]
		case core.KindInt:
			v = core.I(int64(binary.LittleEndian.Uint64(doc)))
			doc = doc[8:]
		case core.KindFloat:
			v = core.F(math.Float64frombits(binary.LittleEndian.Uint64(doc)))
			doc = doc[8:]
		case core.KindBool:
			v = core.B(doc[0] == 1)
			doc = doc[1:]
		}
		p[e.propKeys.Name(tok)] = v
	}
	return p, doc
}

func appendRIDs(doc []byte, rids []core.ID) []byte {
	doc = binary.LittleEndian.AppendUint32(doc, uint32(len(rids)))
	for _, r := range rids {
		doc = binary.LittleEndian.AppendUint64(doc, uint64(r))
	}
	return doc
}

func readRIDs(doc []byte) ([]core.ID, []byte) {
	n := binary.LittleEndian.Uint32(doc)
	doc = doc[4:]
	if n == 0 {
		return nil, doc
	}
	out := make([]core.ID, n)
	for i := range out {
		out[i] = core.ID(binary.LittleEndian.Uint64(doc))
		doc = doc[8:]
	}
	return out, doc
}

type vertexDoc struct {
	out, in []core.ID
	props   core.Props
}

// encodeVertex encodes d into the engine's scratch buffer; the document
// is valid until the next encode.
func (e *Engine) encodeVertex(d *vertexDoc) []byte {
	doc := appendRIDs(e.scratch[:0], d.out)
	doc = appendRIDs(doc, d.in)
	e.scratch = appendProps(doc, e, d.props)
	return e.scratch
}

func (e *Engine) decodeVertex(doc []byte) *vertexDoc {
	var d vertexDoc
	d.out, doc = readRIDs(doc)
	d.in, doc = readRIDs(doc)
	d.props, _ = readProps(doc, e)
	return &d
}

type edgeDoc struct {
	src, dst core.ID
	props    core.Props
}

// encodeEdge is encodeVertex for an edge document.
func (e *Engine) encodeEdge(d *edgeDoc) []byte {
	doc := binary.LittleEndian.AppendUint64(e.scratch[:0], uint64(d.src))
	doc = binary.LittleEndian.AppendUint64(doc, uint64(d.dst))
	e.scratch = appendProps(doc, e, d.props)
	return e.scratch
}

func (e *Engine) decodeEdge(doc []byte) *edgeDoc {
	var d edgeDoc
	d.src = core.ID(binary.LittleEndian.Uint64(doc))
	d.dst = core.ID(binary.LittleEndian.Uint64(doc[8:]))
	d.props, _ = readProps(doc[16:], e)
	return &d
}

// edgeEndsFast decodes only the endpoints (fixed prefix), avoiding the
// property blob.
func edgeEndsFast(doc []byte) (src, dst core.ID) {
	return core.ID(binary.LittleEndian.Uint64(doc)), core.ID(binary.LittleEndian.Uint64(doc[8:]))
}

func (e *Engine) readVertex(id core.ID) (*vertexDoc, bool) {
	c, pos := splitRID(id)
	if c != vertexCluster {
		return nil, false
	}
	doc, ok := e.vcluster.read(pos)
	if !ok {
		return nil, false
	}
	return e.decodeVertex(doc), true
}

func (e *Engine) edgeCluster(id core.ID) (*cluster, int64, bool) {
	c, pos := splitRID(id)
	if c < 1 || c > len(e.eclusters) {
		return nil, 0, false
	}
	return e.eclusters[c-1], pos, true
}

func (e *Engine) readEdge(id core.ID) (*edgeDoc, bool) {
	c, pos, ok := e.edgeCluster(id)
	if !ok {
		return nil, false
	}
	doc, ok := c.read(pos)
	if !ok {
		return nil, false
	}
	return e.decodeEdge(doc), true
}

// ConcurrentWrites implements core.ConcurrentWriter: RID chains and
// property records are mutated only by write operations, and read
// paths keep no shared state, so under core.Guard's exclusive-writer
// discipline mixed read/write workloads are serial-schedule
// consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
