// Package lsm implements a log-structured merge store: an in-memory
// memtable that flushes into immutable sorted runs (SSTables), deletes
// as tombstones, size-tiered compaction, and an optional row cache.
//
// It stands in for the Cassandra backend under the Titan-style engine.
// The behaviours the paper observes all live here: writes are cheap but
// pass through serialization and flush machinery; deletes are *faster*
// than in the other engines because a tombstone write suffices (the
// paper's "tombstone mechanism" note on Titan); reads must consult the
// memtable plus every run (newest wins); and the v1.0 row cache makes
// repeated complex queries look better than the micro-benchmarks say.
package lsm

import (
	"bytes"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/lsm/wal"
)

// Options configure a Store.
type Options struct {
	// FlushBytes is the memtable payload size that triggers a flush.
	FlushBytes int64
	// CompactAt is the number of runs that triggers a full compaction.
	CompactAt int
	// CachePrefixLen enables the row cache when > 0: ScanPrefix results
	// for prefixes of exactly this length are cached until a write
	// touches the row.
	CachePrefixLen int
}

// DefaultOptions are sized for benchmark workloads.
func DefaultOptions() Options {
	return Options{FlushBytes: 1 << 20, CompactAt: 8}
}

type sstable struct {
	keys  [][]byte
	vals  [][]byte // nil value = tombstone
	bytes int64
}

// seek returns the position of the first key >= key.
func (t *sstable) seek(key []byte) int {
	return sort.Search(len(t.keys), func(i int) bool { return bytes.Compare(t.keys[i], key) >= 0 })
}

func (t *sstable) get(key []byte) (val []byte, found bool) {
	i := t.seek(key)
	if i < len(t.keys) && bytes.Equal(t.keys[i], key) {
		return t.vals[i], true
	}
	return nil, false
}

// Store is an LSM key-value store. Reads are safe to run concurrently
// with each other (the row cache is internally synchronized, matching
// the core.Engine contract that read surfaces tolerate concurrent
// reads); writes are single-threaded and must not overlap reads.
type Store struct {
	opts     Options
	mem      *btree.Tree
	memBytes int64
	runs     []*sstable // newest last
	flushes  int
	compacts int

	// Durable mode (see Open): every mutation is logged to the WAL
	// before it touches the memtable. Volatile stores (New) leave all
	// of this nil/false; both keep raw value bytes.
	wal       *wal.Writer
	replaying bool
	err       error

	// cacheMu guards cache, hits and miss: ScanPrefix mutates them on
	// the read path, which concurrent readers would otherwise race on.
	cacheMu sync.Mutex
	cache   map[string][]kv
	hits    int
	miss    int
}

type kv struct{ k, v []byte }

// New returns an empty store.
func New(opts Options) *Store {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = DefaultOptions().FlushBytes
	}
	if opts.CompactAt <= 0 {
		opts.CompactAt = DefaultOptions().CompactAt
	}
	s := &Store{opts: opts, mem: btree.New()}
	if opts.CachePrefixLen > 0 {
		s.cache = make(map[string][]kv)
	}
	return s
}

func (s *Store) invalidate(key []byte) {
	if s.cache == nil {
		return
	}
	if len(key) >= s.opts.CachePrefixLen {
		s.cacheMu.Lock()
		delete(s.cache, string(key[:s.opts.CachePrefixLen]))
		s.cacheMu.Unlock()
	}
}

// Put writes key→value. In durable mode the record is logged (and the
// whole operation, including any flush it triggers, commits as one
// atomic WAL unit) before the memtable changes; a logging failure
// poisons the store (see Err) and drops the write.
func (s *Store) Put(key, value []byte) {
	if value == nil {
		value = []byte{}
	}
	if s.wal == nil {
		s.applyPut(key, value)
		return
	}
	if s.err != nil {
		return
	}
	if err := s.wal.BeginTx(); err != nil {
		s.err = err
		return
	}
	if err := s.wal.AppendPut(key, value); err != nil {
		s.err = err
		return
	}
	s.applyPut(key, value)
	if s.err != nil {
		return
	}
	if err := s.wal.EndTx(); err != nil {
		s.err = err
	}
}

// applyPut is the raw memtable insert shared by the volatile path,
// the durable path and WAL replay. It invalidates the
// row cache — recovery must not resurrect stale cached rows.
func (s *Store) applyPut(key, stored []byte) {
	k := append([]byte(nil), key...)
	v := append([]byte(nil), stored...)
	s.mem.Put(k, append(v, 1)) // trailing live marker
	s.memBytes += int64(len(k) + len(v) + 1)
	s.invalidate(key)
	s.maybeFlush()
}

// Delete writes a tombstone for key.
func (s *Store) Delete(key []byte) {
	if s.wal == nil {
		s.applyDelete(key)
		return
	}
	if s.err != nil {
		return
	}
	if err := s.wal.BeginTx(); err != nil {
		s.err = err
		return
	}
	if err := s.wal.AppendDelete(key); err != nil {
		s.err = err
		return
	}
	s.applyDelete(key)
	if s.err != nil {
		return
	}
	if err := s.wal.EndTx(); err != nil {
		s.err = err
	}
}

func (s *Store) applyDelete(key []byte) {
	k := append([]byte(nil), key...)
	s.mem.Put(k, []byte{0}) // tombstone marker
	s.memBytes += int64(len(k) + 1)
	s.invalidate(key)
	s.maybeFlush()
}

// Tx groups the mutations issued by fn into one atomic WAL unit:
// recovery replays all of them or none. Engines use this to keep
// multi-record operations (an edge row plus its two adjacency
// columns) from being split by a crash. On a volatile store fn just
// runs; nesting is allowed and commits with the outermost Tx.
func (s *Store) Tx(fn func()) {
	if s.wal == nil {
		fn()
		return
	}
	if s.err != nil {
		return
	}
	if err := s.wal.BeginTx(); err != nil {
		s.err = err
		return
	}
	fn()
	if s.err != nil {
		return
	}
	if err := s.wal.EndTx(); err != nil {
		s.err = err
	}
}

func decodeMem(v []byte) (val []byte, tomb bool) {
	if len(v) == 0 || v[len(v)-1] == 0 {
		return nil, true
	}
	return v[:len(v)-1], false
}

// Get returns the newest value for key; ok is false if absent or
// tombstoned. The read path is memtable first, then runs newest→oldest.
func (s *Store) Get(key []byte) (value []byte, ok bool) {
	if v, found := s.mem.Get(key); found {
		val, tomb := decodeMem(v)
		if tomb {
			return nil, false
		}
		return val, true
	}
	for i := len(s.runs) - 1; i >= 0; i-- {
		if v, found := s.runs[i].get(key); found {
			if v == nil {
				return nil, false
			}
			return v, true
		}
	}
	return nil, false
}

func (s *Store) maybeFlush() {
	if s.replaying {
		// Replay reproduces flushes exactly at logged flush marks;
		// size-triggered flushing would depend on replay batch shape.
		return
	}
	if s.memBytes >= s.opts.FlushBytes {
		s.Flush()
	}
}

// Flush turns the memtable into a new immutable run. In durable mode
// the flush is logged as a mark so recovery rebuilds the same run
// structure.
func (s *Store) Flush() {
	if s.mem.Len() == 0 {
		return
	}
	if s.wal != nil {
		if s.err != nil {
			return
		}
		if err := s.wal.AppendFlushMark(); err != nil {
			s.err = err
			return
		}
	}
	s.flush()
}

// flush is the in-memory flush shared with WAL replay.
func (s *Store) flush() {
	if s.mem.Len() == 0 {
		return
	}
	t := &sstable{}
	c := s.mem.Scan()
	for {
		k, v, ok := c.Next()
		if !ok {
			break
		}
		val, tomb := decodeMem(v)
		t.keys = append(t.keys, k)
		if tomb {
			t.vals = append(t.vals, nil)
		} else {
			t.vals = append(t.vals, val)
		}
		t.bytes += int64(len(k)+len(val)) + 6
	}
	s.runs = append(s.runs, t)
	s.mem = btree.New()
	s.memBytes = 0
	s.flushes++
	if len(s.runs) >= s.opts.CompactAt {
		// Size-triggered: implied by the flush mark, not logged —
		// replaying the flush reproduces it.
		s.compact()
	}
}

// compact merges all runs into one, dropping shadowed entries and — as
// this is a full merge — tombstones as well. Only flush triggers it,
// so a durable store's flush mark implies it and nothing else is
// logged.
func (s *Store) compact() {
	if len(s.runs) <= 1 {
		return
	}
	merged := &sstable{}
	type cursor struct {
		t *sstable
		i int
	}
	cs := make([]cursor, len(s.runs))
	for i, t := range s.runs {
		cs[i] = cursor{t, 0}
	}
	for {
		// Find the smallest current key; runs are ordered oldest→newest,
		// so on key ties the higher index (newer run) wins.
		best := -1
		for i := range cs {
			if cs[i].i >= len(cs[i].t.keys) {
				continue
			}
			if best < 0 || bytes.Compare(cs[i].t.keys[cs[i].i], cs[best].t.keys[cs[best].i]) <= 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		key := cs[best].t.keys[cs[best].i]
		val := cs[best].t.vals[cs[best].i]
		for i := range cs {
			for cs[i].i < len(cs[i].t.keys) && bytes.Equal(cs[i].t.keys[cs[i].i], key) {
				cs[i].i++
			}
		}
		if val == nil {
			continue // tombstone resolved by full compaction
		}
		merged.keys = append(merged.keys, key)
		merged.vals = append(merged.vals, val)
		merged.bytes += int64(len(key)+len(val)) + 6
	}
	s.runs = []*sstable{merged}
	s.compacts++
}

// ScanPrefix streams live key/value pairs whose key starts with prefix,
// in key order, with newest-wins/tombstone semantics across the memtable
// and all runs. If the row cache is enabled and the prefix length
// matches, results are served from and stored into the cache.
func (s *Store) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) {
	if s.cache != nil && len(prefix) == s.opts.CachePrefixLen {
		s.cacheMu.Lock()
		row, ok := s.cache[string(prefix)]
		if ok {
			s.hits++
		} else {
			s.miss++
		}
		s.cacheMu.Unlock()
		if !ok {
			// Concurrent misses on the same prefix scan redundantly and
			// store identical rows; rows are immutable once published.
			s.scanPrefixMerged(prefix, func(k, v []byte) bool {
				row = append(row, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
				return true
			})
			s.cacheMu.Lock()
			s.cache[string(prefix)] = row
			s.cacheMu.Unlock()
		}
		for _, p := range row {
			if !fn(p.k, p.v) {
				return
			}
		}
		return
	}
	s.scanPrefixMerged(prefix, fn)
}

// mergeSrc is one input of scanPrefixMerged, holding its current entry:
// the memtable cursor (run == nil) or a position in a run.
type mergeSrc struct {
	mem      btree.Cursor
	run      *sstable
	pos      int
	key, val []byte
	tomb, ok bool
}

// advance loads the source's next entry under prefix, or clears ok.
func (m *mergeSrc) advance(prefix []byte) {
	if m.run == nil {
		var v []byte
		m.key, v, m.ok = m.mem.Next()
		m.val, m.tomb = decodeMem(v)
	} else if m.ok = m.pos < len(m.run.keys); m.ok {
		m.key, m.val = m.run.keys[m.pos], m.run.vals[m.pos]
		m.tomb = m.val == nil
		m.pos++
	}
	m.ok = m.ok && bytes.HasPrefix(m.key, prefix)
}

// mergeWidth holds the memtable plus the at most CompactAt-1 runs a
// default store keeps; more runs spill to the heap.
const mergeWidth = 8

func (s *Store) scanPrefixMerged(prefix []byte, fn func(key, value []byte) bool) {
	// Index 0 is the memtable (newest), then runs newest→oldest, so the
	// lowest index holding a key is its newest version.
	var buf [mergeWidth]mergeSrc
	srcs := append(buf[:0], mergeSrc{mem: *s.mem.Seek(prefix)})
	for i := len(s.runs) - 1; i >= 0; i-- {
		t := s.runs[i]
		srcs = append(srcs, mergeSrc{run: t, pos: t.seek(prefix)})
	}
	for i := range srcs {
		srcs[i].advance(prefix)
	}
	for {
		best := -1
		for i := range srcs {
			if srcs[i].ok && (best < 0 || bytes.Compare(srcs[i].key, srcs[best].key) < 0) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		key, val, tomb := srcs[best].key, srcs[best].val, srcs[best].tomb
		for i := range srcs {
			for srcs[i].ok && bytes.Equal(srcs[i].key, key) {
				srcs[i].advance(prefix)
			}
		}
		if tomb {
			continue
		}
		if !fn(key, val) {
			return
		}
	}
}

// BulkLoad replaces the store contents with the given pairs (sorted,
// unique keys) as a single run — the "disable consistency checks and
// write straight to the backend" load path. In durable mode the whole
// load is logged between bulk markers and committed with one fsync;
// recovery discards an unterminated load.
func (s *Store) BulkLoad(keys, vals [][]byte) error {
	if s.wal == nil {
		return s.installBulk(keys, vals)
	}
	if s.err != nil {
		return s.err
	}
	for i := range keys {
		if i > 0 && bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return errNotSorted
		}
	}
	if err := s.wal.BeginBulk(); err != nil {
		s.err = err
		return err
	}
	for i := range keys {
		if vals[i] == nil {
			vals[i] = []byte{} // logged as empty, so it must stay live here too
		}
		if err := s.wal.AppendPut(keys[i], vals[i]); err != nil {
			s.err = err
			return err
		}
	}
	if err := s.wal.EndBulk(len(keys)); err != nil {
		s.err = err
		return err
	}
	return s.installBulk(keys, vals)
}

// installBulk swaps the store contents for a single pre-sorted run;
// shared by the volatile path, the durable path and WAL replay.
func (s *Store) installBulk(keys, vals [][]byte) error {
	t := &sstable{keys: keys, vals: vals}
	for i := range keys {
		if i > 0 && bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return errNotSorted
		}
		t.bytes += int64(len(keys[i])+len(vals[i])) + 6
	}
	s.mem = btree.New()
	s.memBytes = 0
	s.runs = []*sstable{t}
	if s.cache != nil {
		s.cacheMu.Lock()
		s.cache = make(map[string][]kv)
		s.cacheMu.Unlock()
	}
	return nil
}

var errNotSorted = bulkErr("lsm: BulkLoad keys not strictly ascending")

type bulkErr string

func (e bulkErr) Error() string { return string(e) }

// Stats expose internals for tests and reports.
func (s *Store) Stats() (flushes, compacts, runs, cacheHits, cacheMisses int) {
	s.cacheMu.Lock()
	hits, miss := s.hits, s.miss
	s.cacheMu.Unlock()
	return s.flushes, s.compacts, len(s.runs), hits, miss
}

// Bytes returns the approximate footprint of memtable plus runs.
func (s *Store) Bytes() int64 {
	n := s.mem.Bytes()
	for _, t := range s.runs {
		n += t.bytes
	}
	return n
}

// Durable reports whether the store was opened with a WAL.
func (s *Store) Durable() bool { return s.wal != nil }

// Err returns the sticky durability error: once a WAL append or fsync
// fails, the store stops acknowledging mutations and reports why here.
func (s *Store) Err() error { return s.err }

// WALStats exposes the log position: frames written, frames made
// durable by fsync, and group commits run. Zero on volatile stores.
func (s *Store) WALStats() (lsn, durableLSN, syncs int64) {
	if s.wal == nil {
		return 0, 0, 0
	}
	return s.wal.LSN(), s.wal.DurableLSN(), s.wal.Syncs()
}

// Close syncs outstanding WAL records and releases the log files.
// A volatile store's Close is a no-op.
func (s *Store) Close() error {
	if s.wal == nil {
		return s.err
	}
	cerr := s.wal.Close()
	if s.err != nil {
		return s.err
	}
	return cerr
}
