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
//
// Memory layout: the memtable is a btree.Tree, whose leaves keep their
// pairs in append-only arenas (see package btree), and each run packs
// all its keys and values into one byte array indexed by a key-ordered
// entry table, with the tombstone as a sentinel value length. A run is
// written once, when a flush, a compaction or a bulk load builds it,
// and never changes after, so the bytes of a slice returned by Get or
// ScanPrefix are never overwritten; returned slices are capped at their
// length, so a caller's append copies. The Store keeps no caller slice:
// Put, Delete and Batch.Add copy. Bytes is the modelled footprint and
// does not depend on this layout.
package lsm

import (
	"bytes"
	"encoding/binary"
	"maps"
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

// entry locates one pair in a run's data: the key is
// data[off:off+klen] and the value follows it.
type entry struct{ off, klen, vlen uint32 }

// tombstone is the vlen of a deleted key, which has no value bytes.
const tombstone = ^uint32(0)

// size is the number of data bytes the entry occupies.
func (e entry) size() int {
	if e.vlen == tombstone {
		return int(e.klen)
	}
	return int(e.klen + e.vlen)
}

// sstable is an immutable sorted run: every key and value in one byte
// array, indexed by entries in key order.
type sstable struct {
	data  []byte
	ents  []entry
	bytes int64
}

// newRun returns an empty run with room for n pairs of size bytes.
func newRun(n, size int) *sstable {
	return &sstable{data: make([]byte, 0, size), ents: make([]entry, 0, n)}
}

// add appends a pair (a tombstone when tomb is set, and val is then
// ignored) after every key already in the run.
func (t *sstable) add(key, val []byte, tomb bool) {
	e := entry{off: uint32(len(t.data)), klen: uint32(len(key)), vlen: tombstone}
	t.data = append(t.data, key...)
	if !tomb {
		e.vlen = uint32(len(val))
		t.data = append(t.data, val...)
	} else {
		val = nil
	}
	t.ents = append(t.ents, e)
	t.bytes += int64(len(key)+len(val)) + 6
}

func (t *sstable) key(i int) []byte {
	e := t.ents[i]
	return t.data[e.off:][:e.klen:e.klen]
}

// val returns the i-th value, or tomb for a tombstone.
func (t *sstable) val(i int) (val []byte, tomb bool) {
	e := t.ents[i]
	if e.vlen == tombstone {
		return nil, true
	}
	return t.data[e.off+e.klen:][:e.vlen:e.vlen], false
}

// seek returns the position of the first key >= key.
func (t *sstable) seek(key []byte) int {
	lo, hi := 0, len(t.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(t.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *sstable) get(key []byte) (val []byte, tomb, found bool) {
	i := t.seek(key)
	if i < len(t.ents) && bytes.Equal(t.key(i), key) {
		val, tomb = t.val(i)
		return val, tomb, true
	}
	return nil, false, false
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

	// scratch is where applyPut builds the memtable value (the value
	// plus its live marker) that the memtable then copies.
	scratch []byte

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
	s.scratch = append(append(s.scratch[:0], stored...), 1) // trailing live marker
	s.mem.Put(key, s.scratch)
	s.memBytes += int64(len(key) + len(stored) + 1)
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

// memTombstone is the memtable value of a deleted key: the marker alone.
var memTombstone = []byte{0}

func (s *Store) applyDelete(key []byte) {
	s.mem.Put(key, memTombstone)
	s.memBytes += int64(len(key) + 1)
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
	return v[: len(v)-1 : len(v)-1], false
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
		if v, tomb, found := s.runs[i].get(key); found {
			return v, !tomb
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
	// Size the run exactly, then copy the memtable into it in order.
	n, size := 0, 0
	c := s.mem.Scan()
	for k, v, ok := c.Next(); ok; k, v, ok = c.Next() {
		val, _ := decodeMem(v)
		n, size = n+1, size+len(k)+len(val)
	}
	t := newRun(n, size)
	c = s.mem.Scan()
	for k, v, ok := c.Next(); ok; k, v, ok = c.Next() {
		val, tomb := decodeMem(v)
		t.add(k, val, tomb)
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
	// Pick the surviving version of every key, then pack the survivors
	// into one exactly sized run.
	type ref struct {
		t *sstable
		i int
	}
	var live []ref
	size := 0
	cs := make([]ref, len(s.runs))
	for i, t := range s.runs {
		cs[i] = ref{t, 0}
	}
	for {
		// Find the smallest current key; runs are ordered oldest→newest,
		// so on key ties the higher index (newer run) wins.
		best := -1
		for i := range cs {
			if cs[i].i >= len(cs[i].t.ents) {
				continue
			}
			if best < 0 || bytes.Compare(cs[i].t.key(cs[i].i), cs[best].t.key(cs[best].i)) <= 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		win := cs[best]
		key := win.t.key(win.i)
		for i := range cs {
			for cs[i].i < len(cs[i].t.ents) && bytes.Equal(cs[i].t.key(cs[i].i), key) {
				cs[i].i++
			}
		}
		if win.t.ents[win.i].vlen == tombstone {
			continue // tombstone resolved by full compaction
		}
		live = append(live, win)
		size += win.t.ents[win.i].size()
	}
	merged := newRun(len(live), size)
	for _, r := range live {
		v, _ := r.t.val(r.i)
		merged.add(r.t.key(r.i), v, false)
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
	} else if m.ok = m.pos < len(m.run.ents); m.ok {
		m.key = m.run.key(m.pos)
		m.val, m.tomb = m.run.val(m.pos)
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

// Batch collects the pairs of one BulkLoad, packed the way a run is:
// every key and value appended to one byte array. BulkLoad adopts that
// array as the run's data, so the pairs are copied once, by Add.
type Batch struct{ run sstable }

// NewBatch returns an empty batch with room for n pairs of size bytes
// of keys and values together. A batch filled to exactly that size
// becomes the store's run without a copy.
func NewBatch(n, size int) *Batch { return &Batch{run: *newRun(n, size)} }

// Add copies the pair key→val into the batch; a nil val is stored as
// empty.
func (b *Batch) Add(key, val []byte) { b.run.add(key, val, false) }

// Sort orders the pairs by key. BulkLoad requires it. Each key's first
// 16 bytes are read once, as two big-endian words, zero past the end of
// a shorter key (which orders a key before its extensions, as
// bytes.Compare does); the sort compares those words, and whole keys
// only on a tie.
func (b *Batch) Sort() {
	s := prefixSort{t: &b.run, words: make([][2]uint64, len(b.run.ents))}
	for i := range s.words {
		var pad [16]byte
		copy(pad[:], s.t.key(i))
		s.words[i] = [2]uint64{binary.BigEndian.Uint64(pad[:]), binary.BigEndian.Uint64(pad[8:])}
	}
	sort.Sort(&s)
}

// prefixSort sorts a run's entries by key, moving each entry's prefix
// words along with it.
type prefixSort struct {
	t     *sstable
	words [][2]uint64
}

func (s *prefixSort) Len() int { return len(s.words) }

func (s *prefixSort) Less(i, j int) bool {
	x, y := &s.words[i], &s.words[j]
	if x[0] != y[0] {
		return x[0] < y[0]
	}
	if x[1] != y[1] {
		return x[1] < y[1]
	}
	return bytes.Compare(s.t.key(i), s.t.key(j)) < 0
}

func (s *prefixSort) Swap(i, j int) {
	s.words[i], s.words[j] = s.words[j], s.words[i]
	s.t.ents[i], s.t.ents[j] = s.t.ents[j], s.t.ents[i]
}

// BulkLoad replaces the store contents with the batch's pairs (sorted,
// unique keys) as a single run — the "disable consistency checks and
// write straight to the backend" load path. The store takes the batch
// over; do not use it afterwards. In durable mode the whole load is
// logged between bulk markers and committed with one fsync; recovery
// discards an unterminated load.
func (s *Store) BulkLoad(b *Batch) error {
	if s.wal == nil {
		return s.installBulk(b)
	}
	if s.err != nil {
		return s.err
	}
	t := &b.run
	if !t.sorted() {
		return errNotSorted
	}
	if err := s.wal.BeginBulk(); err != nil {
		s.err = err
		return err
	}
	for i := range t.ents {
		v, _ := t.val(i)
		if err := s.wal.AppendPut(t.key(i), v); err != nil {
			s.err = err
			return err
		}
	}
	if err := s.wal.EndBulk(len(t.ents)); err != nil {
		s.err = err
		return err
	}
	return s.installBulk(b)
}

// sorted reports whether the run's keys are strictly ascending.
func (t *sstable) sorted() bool {
	for i := 1; i < len(t.ents); i++ {
		if bytes.Compare(t.key(i-1), t.key(i)) >= 0 {
			return false
		}
	}
	return true
}

// installBulk swaps the store contents for the batch as a single run;
// shared by the volatile path, the durable path and WAL replay. The
// batch's data is clipped to its length first when growth left more
// than an eighth of it unused.
func (s *Store) installBulk(b *Batch) error {
	t := b.run
	if !t.sorted() {
		return errNotSorted
	}
	if slack := cap(t.data) - len(t.data); slack > len(t.data)/8 {
		t.data = bytes.Clone(t.data)
	}
	s.mem = btree.New()
	s.memBytes = 0
	s.runs = []*sstable{&t}
	if s.cache != nil {
		s.cacheMu.Lock()
		s.cache = make(map[string][]kv)
		s.cacheMu.Unlock()
	}
	return nil
}

// Clone returns an independent copy of a volatile store: same
// contents, runs, counters and cached rows; a write into either store
// never reaches the other. A durable store cannot be copied (its WAL
// is one set of files) and returns an error. Clone reads s: it
// may run alongside other reads, not alongside a write.
func (s *Store) Clone() (*Store, error) {
	if s.wal != nil {
		return nil, errDurableClone
	}
	c := &Store{
		opts:     s.opts,
		mem:      s.mem.Clone(),
		memBytes: s.memBytes,
		// The runs are shared: a run is never written after the flush,
		// compaction or bulk load that built it.
		runs:     append(make([]*sstable, 0, cap(s.runs)), s.runs...),
		flushes:  s.flushes,
		compacts: s.compacts,
		scratch:  make([]byte, 0, cap(s.scratch)),
	}
	if s.cache != nil {
		s.cacheMu.Lock()
		// The cached rows are shared: a row is never changed once
		// published, only dropped from the map.
		c.cache, c.hits, c.miss = maps.Clone(s.cache), s.hits, s.miss
		s.cacheMu.Unlock()
	}
	return c, nil
}

// errDurableClone is Clone's refusal of a durable store.
var errDurableClone = bulkErr("lsm: a durable store cannot be cloned")

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
