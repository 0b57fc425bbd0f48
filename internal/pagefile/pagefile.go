// Package pagefile provides the two low-level storage shapes used by the
// native-architecture engines, mirroring how the paper describes their
// files (Section 3.2):
//
//   - Store: a file of fixed-size records where the record ID *is* the
//     offset (ID × record size), as in Neo4j's node/relationship stores.
//     Given an ID, a record is fetched with one multiplication and one
//     slice — the "direct pointer" edge traversal of Table 1.
//
//   - Heap: an append-only file of variable-size records addressed by
//     physical offset, as in OrientDB's clusters; combined with a
//     position map it yields logical RIDs that survive relocation.
//
// Both are byte-backed so space accounting (Figure 1) reflects the real
// serialized size of the stores, including fragmentation and freelists.
package pagefile

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Store is a file of fixed-size records. Record 0 is valid; callers that
// need a nil sentinel should reserve it themselves.
type Store struct {
	recSize  int
	buf      []byte
	inUse    []bool
	freelist []int64
	live     int64
}

// NewStore returns a store of recSize-byte records.
func NewStore(recSize int) *Store {
	if recSize <= 0 {
		panic(fmt.Sprintf("pagefile: invalid record size %d", recSize))
	}
	return &Store{recSize: recSize}
}

// Reserve grows the store's capacity to hold n additional records
// without reallocation — the bulk-load pre-sizing hook: a loader that
// knows its record count up front (via the dataset's CSR snapshot)
// avoids the doubling copies of append. It never changes the store's
// contents or IDs.
func (s *Store) Reserve(n int64) {
	if n <= 0 {
		return
	}
	s.buf = slices.Grow(s.buf, int(n)*s.recSize)
	s.inUse = slices.Grow(s.inUse, int(n))
}

// Clone returns an independent copy of the store. Every slice keeps its
// capacity, so an Alloc on the copy does the work it does on s.
func (s *Store) Clone() *Store {
	return &Store{
		recSize:  s.recSize,
		buf:      append(make([]byte, 0, cap(s.buf)), s.buf...),
		inUse:    append(make([]bool, 0, cap(s.inUse)), s.inUse...),
		freelist: append(make([]int64, 0, cap(s.freelist)), s.freelist...),
		live:     s.live,
	}
}

// Alloc reserves a record, reusing freed slots first, and returns its ID.
func (s *Store) Alloc() int64 {
	if n := len(s.freelist); n > 0 {
		id := s.freelist[n-1]
		s.freelist = s.freelist[:n-1]
		s.inUse[id] = true
		s.live++
		clear(s.buf[int(id)*s.recSize : (int(id)+1)*s.recSize])
		return id
	}
	id := int64(len(s.inUse))
	s.inUse = append(s.inUse, true)
	s.buf = append(s.buf, make([]byte, s.recSize)...)
	s.live++
	return id
}

// Free releases a record back to the freelist.
func (s *Store) Free(id int64) {
	if !s.valid(id) {
		return
	}
	s.inUse[id] = false
	s.freelist = append(s.freelist, id)
	s.live--
}

func (s *Store) valid(id int64) bool {
	return id >= 0 && id < int64(len(s.inUse)) && s.inUse[id]
}

// InUse reports whether the record is live.
func (s *Store) InUse(id int64) bool { return s.valid(id) }

// Record returns the live record's bytes as a direct view (no copy);
// writes through the slice mutate the store. ok is false for freed or
// out-of-range IDs.
func (s *Store) Record(id int64) (rec []byte, ok bool) {
	if !s.valid(id) {
		return nil, false
	}
	off := int(id) * s.recSize
	return s.buf[off : off+s.recSize : off+s.recSize], true
}

// Live returns the number of live records.
func (s *Store) Live() int64 { return s.live }

// HighWater returns the number of record slots ever allocated; the file
// size is HighWater × the record size regardless of freed records, as with
// real record files.
func (s *Store) HighWater() int64 { return int64(len(s.inUse)) }

// Bytes returns the file size in bytes (plus freelist overhead).
func (s *Store) Bytes() int64 {
	return int64(len(s.buf)) + int64(len(s.freelist))*8 + int64(len(s.inUse))
}

// ScanLive calls fn for every live record ID in ascending order until fn
// returns false.
func (s *Store) ScanLive(fn func(id int64) bool) {
	for id, ok := range s.inUse {
		if ok && !fn(int64(id)) {
			return
		}
	}
}

// Heap is an append-only variable-size record file. Records are length-
// prefixed; deleting leaves a hole (dead bytes), as in append-only
// cluster files. Offsets returned by Append are stable physical
// positions.
type Heap struct {
	buf  []byte
	dead int64
	live int64
}

// NewHeap returns an empty heap file.
func NewHeap() *Heap { return &Heap{} }

// Reserve grows the heap's capacity by n bytes (plus per-record
// headers are the caller's business) without changing its contents.
func (h *Heap) Reserve(n int64) {
	if n <= 0 {
		return
	}
	h.buf = slices.Grow(h.buf, int(n))
}

// Clone returns an independent copy of the heap, with its capacity.
func (h *Heap) Clone() *Heap {
	return &Heap{buf: append(make([]byte, 0, cap(h.buf)), h.buf...), dead: h.dead, live: h.live}
}

// Append writes a record and returns its physical offset.
func (h *Heap) Append(rec []byte) int64 {
	off := int64(len(h.buf))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	h.buf = append(h.buf, hdr[:]...)
	h.buf = append(h.buf, rec...)
	h.live++
	return off
}

// Read returns a view of the record at off. ok is false if off is out of
// range.
func (h *Heap) Read(off int64) (rec []byte, ok bool) {
	if off < 0 || off+4 > int64(len(h.buf)) {
		return nil, false
	}
	n := int64(binary.LittleEndian.Uint32(h.buf[off:]))
	if off+4+n > int64(len(h.buf)) {
		return nil, false
	}
	return h.buf[off+4 : off+4+n : off+4+n], true
}

// Delete marks the record at off as dead. The space is not reclaimed
// (append-only file); it is tracked as dead bytes.
func (h *Heap) Delete(off int64) {
	if rec, ok := h.Read(off); ok {
		h.dead += int64(len(rec)) + 4
		h.live--
	}
}

// Update rewrites a record: appended at the tail, old position dead. It
// returns the new offset — the relocation that OrientDB's position map
// absorbs without changing the logical RID.
func (h *Heap) Update(off int64, rec []byte) int64 {
	h.Delete(off)
	return h.Append(rec)
}

// Bytes returns the file size (dead space included, as on disk).
func (h *Heap) Bytes() int64 { return int64(len(h.buf)) }

// DeadBytes returns the bytes occupied by deleted records.
func (h *Heap) DeadBytes() int64 { return h.dead }

// Live returns the number of live records.
func (h *Heap) Live() int64 { return h.live }

// PositionMap maps logical record positions to physical offsets, the
// indirection OrientDB places between RIDs and cluster files so objects
// can move without changing identity. Logical IDs are dense and
// append-only; freed entries are tombstoned.
type PositionMap struct {
	phys []int64 // -1 = tombstone
	live int64
}

// NewPositionMap returns an empty map.
func NewPositionMap() *PositionMap { return &PositionMap{} }

// Reserve grows the map's capacity to hold n additional logical
// positions without changing its contents or accounting.
func (m *PositionMap) Reserve(n int64) {
	if n <= 0 {
		return
	}
	m.phys = slices.Grow(m.phys, int(n))
}

// Clone returns an independent copy of the map, with its capacity.
func (m *PositionMap) Clone() *PositionMap {
	return &PositionMap{phys: append(make([]int64, 0, cap(m.phys)), m.phys...), live: m.live}
}

// Add registers a physical offset and returns the logical position.
func (m *PositionMap) Add(phys int64) int64 {
	m.phys = append(m.phys, phys)
	m.live++
	return int64(len(m.phys) - 1)
}

// Get resolves a logical position. ok is false for tombstoned or
// out-of-range positions.
func (m *PositionMap) Get(logical int64) (phys int64, ok bool) {
	if logical < 0 || logical >= int64(len(m.phys)) || m.phys[logical] < 0 {
		return 0, false
	}
	return m.phys[logical], true
}

// Move repoints a logical position at a new physical offset.
func (m *PositionMap) Move(logical, phys int64) bool {
	if logical < 0 || logical >= int64(len(m.phys)) || m.phys[logical] < 0 {
		return false
	}
	m.phys[logical] = phys
	return true
}

// Free tombstones a logical position.
func (m *PositionMap) Free(logical int64) bool {
	if logical < 0 || logical >= int64(len(m.phys)) || m.phys[logical] < 0 {
		return false
	}
	m.phys[logical] = -1
	m.live--
	return true
}

// Live returns the number of live logical positions.
func (m *PositionMap) Live() int64 { return m.live }

// Len returns the high-water number of logical positions.
func (m *PositionMap) Len() int64 { return int64(len(m.phys)) }

// ScanLive calls fn for every live logical position in ascending order
// until fn returns false.
func (m *PositionMap) ScanLive(fn func(logical int64) bool) {
	for i, p := range m.phys {
		if p >= 0 && !fn(int64(i)) {
			return
		}
	}
}

// Bytes returns the map's size.
func (m *PositionMap) Bytes() int64 { return int64(len(m.phys)) * 8 }
