package titan

// Durable mode: the engine's LSM substrate opens over a write-ahead
// log (internal/lsm/wal) instead of living purely in memory. Beyond
// the graph rows, durability needs the engine's volatile bookkeeping
// — the label/property token dictionaries, the ID allocator, and
// which graph-centric indexes exist — persisted too, or a reopened
// store could re-issue IDs and mis-decode tokens. That state lives in
// meta rows under their own tag, written inside the same WAL
// transaction as the graph mutation they belong to, and replayed into
// the dictionaries on Open without re-logging.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/engines/kit"
	"repro/internal/lsm"
)

// Meta rows: tag(1) | sub(1) | ...
// 'M' sorts between 'E' and 'V', and every meta key is shorter than
// rowPrefixLen, so row-cache prefixes and 'V'/'E' scans never see one.
const tagMeta = 'M'

const (
	subLabel byte = 1 // | tok(4, BE) -> label name
	subProp  byte = 2 // | tok(4, BE) -> property key name
	subNext  byte = 3 // -> nextID (8, BE)
	subIndex byte = 4 // | name -> nil (a graph-centric index exists)
)

func metaTokKey(sub byte, tok uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte{tagMeta, sub}, tok)
}

func metaNextKey() []byte { return []byte{tagMeta, subNext} }

func metaIndexKey(name string) []byte {
	return append([]byte{tagMeta, subIndex}, name...)
}

// ensureLabel interns the label and, on first allocation in durable
// mode, persists the token mapping.
func (e *Engine) ensureLabel(l string) uint32 { return e.ensureTok(&e.labels, subLabel, l) }

// ensureProp is ensureLabel for property keys.
func (e *Engine) ensureProp(p string) uint32 { return e.ensureTok(&e.propKeys, subProp, p) }

func (e *Engine) ensureTok(dict *kit.Tokens, sub byte, name string) uint32 {
	if t, ok := dict.Lookup(name); ok {
		return t
	}
	t := dict.Intern(name)
	if e.kv.Durable() {
		e.kv.Put(metaTokKey(sub, t), []byte(name))
	}
	return t
}

// allocID hands out the next object ID, persisting the counter in
// durable mode so a reopened store never re-issues an ID.
func (e *Engine) allocID() core.ID {
	id := core.ID(e.nextID)
	e.nextID++
	if e.kv.Durable() {
		e.kv.Put(metaNextKey(), binary.BigEndian.AppendUint64(nil, uint64(e.nextID)))
	}
	return id
}

// Open returns a durable engine rooted at dir, recovering any
// existing WAL. Reopening is read-only with respect to the log:
// dictionaries, the ID allocator and index definitions are rebuilt
// from replayed meta rows without writing anything back.
func Open(v Version, dir string) (*Engine, *lsm.RecoveryStats, error) {
	return OpenOptions(v, dir, lsm.OpenOptions{})
}

// OpenOptions is Open with explicit store/WAL/filesystem options —
// the store knobs default to New's for the version, so tests can
// inject a simulated filesystem or tighter thresholds.
func OpenOptions(v Version, dir string, o lsm.OpenOptions) (*Engine, *lsm.RecoveryStats, error) {
	if o.Store == (lsm.Options{}) {
		o.Store = storeOptions(v)
	}
	kv, rst, err := lsm.Open(dir, o)
	if err != nil {
		return nil, nil, err
	}
	e := &Engine{version: v, store: store{kv: kv}}
	if err := e.loadMeta(); err != nil {
		kv.Close()
		return nil, nil, err
	}
	return e, rst, nil
}

// replayTokens re-interns one dictionary from its meta rows. The scan
// arrives in big-endian token order, so interning in scan order
// reconstructs the dictionary exactly.
func (e *Engine) replayTokens(sub byte, kind string, dict *kit.Tokens) error {
	var bad error
	e.kv.ScanPrefix([]byte{tagMeta, sub}, func(k, v []byte) bool {
		tok := binary.BigEndian.Uint32(k[2:])
		if int(tok) != dict.Len() {
			bad = fmt.Errorf("titan: %s token %d out of order (have %d)", kind, tok, dict.Len())
			return false
		}
		dict.Intern(string(v))
		return true
	})
	return bad
}

// loadMeta rebuilds the volatile bookkeeping from meta rows.
func (e *Engine) loadMeta() error {
	if err := e.replayTokens(subLabel, "label", &e.labels); err != nil {
		return err
	}
	if err := e.replayTokens(subProp, "prop", &e.propKeys); err != nil {
		return err
	}
	if b, ok := e.kv.Get(metaNextKey()); ok && len(b) == 8 {
		e.nextID = int64(binary.BigEndian.Uint64(b))
	}
	var indexNames []string
	e.kv.ScanPrefix([]byte{tagMeta, subIndex}, func(k, _ []byte) bool {
		indexNames = append(indexNames, string(k[2:]))
		return true
	})
	// Index contents are rebuilt from the stored rows; nothing is logged.
	for _, name := range indexNames {
		e.vindex.Build(name, e.Vertices, e.VertexProp)
	}
	return nil
}

// metaPairs renders the full bookkeeping snapshot as sorted-ready kv
// pairs for BulkLoad, which replaces the store's entire contents.
func (e *Engine) metaPairs() (keys, vals [][]byte) {
	for tok := 0; tok < e.labels.Len(); tok++ {
		keys = append(keys, metaTokKey(subLabel, uint32(tok)))
		vals = append(vals, []byte(e.labels.Name(uint32(tok))))
	}
	for tok := 0; tok < e.propKeys.Len(); tok++ {
		keys = append(keys, metaTokKey(subProp, uint32(tok)))
		vals = append(vals, []byte(e.propKeys.Name(uint32(tok))))
	}
	keys = append(keys, metaNextKey())
	vals = append(vals, binary.BigEndian.AppendUint64(nil, uint64(e.nextID)))
	for _, name := range e.vindex.Names() {
		keys = append(keys, metaIndexKey(name))
		vals = append(vals, []byte{})
	}
	return keys, vals
}

// AuditReport summarizes an integrity pass over the stored graph.
type AuditReport struct {
	Vertices int64    `json:"vertices"`
	Edges    int64    `json:"edges"`
	NextID   int64    `json:"next_id"`
	Problems []string `json:"problems,omitempty"`
}

// Ok reports whether the audit found no inconsistencies.
func (r AuditReport) Ok() bool { return len(r.Problems) == 0 }

// Audit cross-checks the row families: every edge row's endpoints
// must exist, each edge must appear in both endpoints' adjacency
// columns, every adjacency column must point at a live edge row, and
// the persisted ID allocator must be ahead of every live object.
// gdb-serve's smoke test checks its output after a kill -9.
func (e *Engine) Audit() AuditReport {
	rep := AuditReport{NextID: e.nextID}
	problem := func(format string, args ...any) {
		if len(rep.Problems) < 20 {
			rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
		}
	}
	var maxID core.ID = -1

	vset := make(map[core.ID]struct{})
	for _, id := range e.scanRows(tagVertexRow) {
		vset[id] = struct{}{}
		rep.Vertices++
		if id > maxID {
			maxID = id
		}
	}

	type edgeEnd struct{ src, dst core.ID }
	eset := make(map[core.ID]edgeEnd)
	for _, id := range e.scanRows(tagEdgeRow) {
		rep.Edges++
		if id > maxID {
			maxID = id
		}
		src, dst, tok, ok := e.edgeRow(id)
		if !ok {
			problem("edge %d: exists row unreadable", id)
			continue
		}
		if int(tok) >= e.labels.Len() {
			problem("edge %d: label token %d outside dictionary (%d labels)", id, tok, e.labels.Len())
		}
		if _, ok := vset[src]; !ok {
			problem("edge %d: src vertex %d missing", id, src)
		}
		if _, ok := vset[dst]; !ok {
			problem("edge %d: dst vertex %d missing", id, dst)
		}
		eset[id] = edgeEnd{src, dst}
	}

	// Walk adjacency columns: no dangling references, and count each
	// edge's appearances to catch a missing half of the pair.
	outSeen := make(map[core.ID]struct{})
	inSeen := make(map[core.ID]struct{})
	for id := range vset {
		for _, kind := range []byte{colOutEdge, colInEdge} {
			e.kv.ScanPrefix(rowKey(tagVertexRow, id, kind), func(k, _ []byte) bool {
				_, other, eid := parseEdgeCol(id, k)
				ends, ok := eset[eid]
				if !ok {
					problem("vertex %d: adjacency column references dead edge %d", id, eid)
					return true
				}
				if kind == colOutEdge {
					if ends.src != id || ends.dst != other {
						problem("edge %d: out column on %d disagrees with edge row (%d->%d)", eid, id, ends.src, ends.dst)
					}
					outSeen[eid] = struct{}{}
				} else {
					if ends.dst != id || ends.src != other {
						problem("edge %d: in column on %d disagrees with edge row (%d->%d)", eid, id, ends.src, ends.dst)
					}
					inSeen[eid] = struct{}{}
				}
				return true
			})
		}
	}
	for eid := range eset {
		if _, ok := outSeen[eid]; !ok {
			problem("edge %d: missing out adjacency column", eid)
		}
		if _, ok := inSeen[eid]; !ok {
			problem("edge %d: missing in adjacency column", eid)
		}
	}

	if maxID >= core.ID(e.nextID) {
		problem("id allocator behind: nextID %d <= max live id %d", e.nextID, maxID)
	}
	if err := e.kv.Err(); err != nil {
		problem("store poisoned: %v", err)
	}
	return rep
}

// WALStats exposes the substrate's log position (frames written,
// durable frames, fsync count) for serving reports.
func (e *Engine) WALStats() (lsn, durable, syncs int64) {
	return e.kv.WALStats()
}
