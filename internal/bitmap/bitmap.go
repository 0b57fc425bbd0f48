// Package bitmap implements a compressed bitmap over uint64 keys, in the
// style of Roaring bitmaps: the key space is split into 2^16-wide chunks,
// each stored either as a sorted array of 16-bit offsets (sparse) or as a
// 1024-word bitset (dense), converting between the two as cardinality
// crosses a threshold.
//
// It is the substrate of the Sparksee-style engine, whose architecture
// the paper describes as "clusters of bitmaps": object sets, per-value
// attribute sets, and per-node incident-edge sets are all bitmaps, so
// counting is a popcount and set operations are bitwise. The same
// structure also explains that engine's weakness: operations that need
// *materialized* neighbour lists per node must decompress many bitmaps.
//
// Memory layout: as in Roaring itself, the containers live in one slice
// parallel to the sorted chunk keys, so a bitmap is two slices plus
// each container's array or word set, with no map and no pointer per
// container. Adding or removing a chunk shifts both slices. A container
// owns its array or words; nothing returned by a Bitmap aliases them,
// and copies made by an Arena share allocations but no element. Bytes
// is the modelled footprint and does not depend on this layout.
package bitmap

import (
	"math/bits"
	"slices"
	"sort"
)

// arrayToBitmapThreshold is the container cardinality above which a
// sorted array is converted into a dense bitset (and below which a dense
// bitset converts back on removal).
const arrayToBitmapThreshold = 4096

const wordsPerContainer = 1 << 16 / 64

type container struct {
	// Exactly one of array / words is non-nil.
	array []uint16
	words []uint64
	n     int // cardinality (maintained for both representations)
}

// Bitmap is a set of uint64 values. The zero value is an empty set ready
// for use.
type Bitmap struct {
	keys []uint64    // sorted high-bits chunk keys
	cs   []container // cs[i] holds the chunk keys[i]
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// Arena carves independent copies of many bitmaps from one allocation
// per slice kind: Reserve every bitmap to be copied, then Clone each.
// Every slice of a copy keeps its source's capacity, so a write into
// the copy does the work it does in the source, and the copy alone
// writes within that capacity; a slice that outgrows it moves to an
// allocation of its own, as any slice does. The shared allocations
// live as long as any copy carved from them.
type Arena struct {
	need    [5]int // bitmaps, keys, containers, array and word elements reserved
	bitmaps []Bitmap
	keys    []uint64
	cs      []container
	arrays  []uint16
	words   []uint64
}

// Reserve makes room for a copy of b.
func (a *Arena) Reserve(b *Bitmap) {
	a.need[0]++
	a.need[1] += cap(b.keys)
	a.need[2] += cap(b.cs)
	for i := range b.cs {
		a.need[3] += cap(b.cs[i].array)
		a.need[4] += cap(b.cs[i].words)
	}
}

// Clone returns an independent copy of b, carved from the room Reserve
// made; beyond it, the copy allocates its own.
func (a *Arena) Clone(b *Bitmap) *Bitmap {
	if a.need != [5]int{} {
		a.bitmaps = make([]Bitmap, 0, a.need[0])
		a.keys = make([]uint64, 0, a.need[1])
		a.cs = make([]container, 0, a.need[2])
		a.arrays = make([]uint16, 0, a.need[3])
		a.words = make([]uint64, 0, a.need[4])
		a.need = [5]int{}
	}
	var c *Bitmap
	if n := len(a.bitmaps); n < cap(a.bitmaps) {
		a.bitmaps = a.bitmaps[:n+1]
		c = &a.bitmaps[n]
	} else {
		c = new(Bitmap)
	}
	c.keys = carve(&a.keys, b.keys, cap(b.keys))
	c.cs = carve(&a.cs, nil, cap(b.cs))[:len(b.cs)]
	for i := range b.cs {
		src, dst := &b.cs[i], &c.cs[i]
		dst.n = src.n
		if src.words != nil {
			dst.words = carve(&a.words, src.words, cap(src.words))
		}
		if src.array != nil {
			dst.array = carve(&a.arrays, src.array, cap(src.array))
		}
	}
	return c
}

// carve returns a copy of src with capacity n, taken from the unused
// tail of pool when it fits there and allocated otherwise.
func carve[T any](pool *[]T, src []T, n int) []T {
	p := *pool
	if cap(p)-len(p) < n {
		return append(make([]T, 0, n), src...)
	}
	*pool = p[:len(p)+n]
	return append(p[len(p):len(p):len(p)+n], src...)
}

func split(x uint64) (hi uint64, lo uint16) { return x >> 16, uint16(x & 0xffff) }

// find returns the index of the first chunk key >= hi, and whether it
// is hi.
func (b *Bitmap) find(hi uint64) (int, bool) {
	lo, n := 0, len(b.keys)
	for lo < n {
		mid := int(uint(lo+n) >> 1)
		if b.keys[mid] < hi {
			lo = mid + 1
		} else {
			n = mid
		}
	}
	return lo, lo < len(b.keys) && b.keys[lo] == hi
}

// container returns the container of chunk hi, or nil when it is
// absent and create is false. The pointer is valid until the next
// chunk is added or removed.
func (b *Bitmap) container(hi uint64, create bool) *container {
	i, ok := b.find(hi)
	if !ok {
		if !create {
			return nil
		}
		b.keys = insertAt(b.keys, i, hi)
		b.cs = insertAt(b.cs, i, container{})
	}
	return &b.cs[i]
}

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

func (c *container) contains(lo uint16) bool {
	if c.words != nil {
		return c.words[lo/64]&(1<<(lo%64)) != 0
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	return i < len(c.array) && c.array[i] == lo
}

func (c *container) add(lo uint16) bool {
	if c.words != nil {
		w := &c.words[lo/64]
		mask := uint64(1) << (lo % 64)
		if *w&mask != 0 {
			return false
		}
		*w |= mask
		c.n++
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	if i < len(c.array) && c.array[i] == lo {
		return false
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = lo
	c.n++
	if c.n > arrayToBitmapThreshold {
		c.toWords()
	}
	return true
}

func (c *container) remove(lo uint16) bool {
	if c.words != nil {
		w := &c.words[lo/64]
		mask := uint64(1) << (lo % 64)
		if *w&mask == 0 {
			return false
		}
		*w &^= mask
		c.n--
		if c.n < arrayToBitmapThreshold/2 {
			c.toArray()
		}
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	if i >= len(c.array) || c.array[i] != lo {
		return false
	}
	copy(c.array[i:], c.array[i+1:])
	c.array = c.array[:len(c.array)-1]
	c.n--
	return true
}

func (c *container) toWords() {
	c.words = make([]uint64, wordsPerContainer)
	for _, lo := range c.array {
		c.words[lo/64] |= 1 << (lo % 64)
	}
	c.array = nil
}

func (c *container) toArray() {
	c.array = make([]uint16, 0, c.n)
	for wi, w := range c.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			c.array = append(c.array, uint16(wi*64+bit))
			w &^= 1 << bit
		}
	}
	c.words = nil
}

// Add inserts x, reporting whether it was absent.
func (b *Bitmap) Add(x uint64) bool {
	hi, lo := split(x)
	return b.container(hi, true).add(lo)
}

// Remove deletes x, reporting whether it was present.
func (b *Bitmap) Remove(x uint64) bool {
	hi, lo := split(x)
	i, found := b.find(hi)
	if !found {
		return false
	}
	ok := b.cs[i].remove(lo)
	if ok && b.cs[i].n == 0 {
		b.keys = removeAt(b.keys, i)
		b.cs = removeAt(b.cs, i)
	}
	return ok
}

// Contains reports membership of x.
func (b *Bitmap) Contains(x uint64) bool {
	hi, lo := split(x)
	c := b.container(hi, false)
	return c != nil && c.contains(lo)
}

// Len returns the cardinality. This is the popcount-style O(#containers)
// operation behind the Sparksee engine's fast counting queries.
func (b *Bitmap) Len() int {
	n := 0
	for i := range b.cs {
		n += b.cs[i].n
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (b *Bitmap) IsEmpty() bool { return b.Len() == 0 }

// Iterate calls fn on each element in ascending order until fn returns
// false.
func (b *Bitmap) Iterate(fn func(x uint64) bool) {
	for i, hi := range b.keys {
		c := &b.cs[i]
		base := hi << 16
		if c.words != nil {
			for wi, w := range c.words {
				for w != 0 {
					bit := bits.TrailingZeros64(w)
					if !fn(base | uint64(wi*64+bit)) {
						return
					}
					w &^= 1 << bit
				}
			}
		} else {
			for _, lo := range c.array {
				if !fn(base | uint64(lo)) {
					return
				}
			}
		}
	}
}

// Slice materializes the set in ascending order.
func (b *Bitmap) Slice() []uint64 {
	out := make([]uint64, 0, b.Len())
	b.Iterate(func(x uint64) bool { out = append(out, x); return true })
	return out
}

// Min returns the smallest element; ok is false when the set is empty.
func (b *Bitmap) Min() (uint64, bool) {
	var min uint64
	found := false
	b.Iterate(func(x uint64) bool { min, found = x, true; return false })
	return min, found
}

// And returns the intersection of b and o as a new bitmap.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	out := New()
	small, large := b, o
	if small.Len() > large.Len() {
		small, large = large, small
	}
	small.Iterate(func(x uint64) bool {
		if large.Contains(x) {
			out.Add(x)
		}
		return true
	})
	return out
}

// Or returns the union of b and o as a new bitmap.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	out := New()
	b.Iterate(func(x uint64) bool { out.Add(x); return true })
	o.Iterate(func(x uint64) bool { out.Add(x); return true })
	return out
}

// AndLen returns the intersection cardinality without materializing it,
// container by container as Roaring counts: it merges the two operands'
// chunk keys and counts each shared chunk by its pair of kinds — the
// popcount of the AND of two word sets, a bit test per element of an
// array against a word set, a merge of two sorted arrays, or a search
// of the longer array for each element of a much shorter one. It
// allocates nothing.
func (b *Bitmap) AndLen(o *Bitmap) int {
	n := 0
	for i, j := 0, 0; i < len(b.keys) && j < len(o.keys); {
		switch {
		case b.keys[i] < o.keys[j]:
			i++
		case b.keys[i] > o.keys[j]:
			j++
		default:
			n += b.cs[i].andLen(&o.cs[j])
			i++
			j++
		}
	}
	return n
}

// gallopRatio is the length ratio of two arrays above which andLen
// searches the longer one for each element of the shorter instead of
// merging them, as Roaring does: a merge walks the longer array whole.
const gallopRatio = 64

// andLen is the cardinality of the intersection of two containers of
// the same chunk.
func (c *container) andLen(o *container) int {
	if c.words == nil {
		c, o = o, c // a word set, if either is one, comes first
	}
	n := 0
	switch {
	case o.words != nil:
		ow := o.words[:len(c.words)]
		for i, w := range c.words {
			n += bits.OnesCount64(w & ow[i])
		}
	case c.words != nil:
		for _, lo := range o.array {
			n += int(c.words[lo/64] >> (lo % 64) & 1)
		}
	default:
		a, b := c.array, o.array
		if len(a) > len(b) {
			a, b = b, a
		}
		if len(a)*gallopRatio < len(b) {
			for _, x := range a {
				i, found := slices.BinarySearch(b, x)
				if found {
					n++
				}
				b = b[i:]
			}
			break
		}
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
	}
	return n
}

// Bytes approximates the memory footprint, for space accounting.
func (b *Bitmap) Bytes() int64 {
	var n int64 = 48
	for i := range b.cs {
		c := &b.cs[i]
		n += 40
		if c.words != nil {
			n += wordsPerContainer * 8
		} else {
			n += int64(len(c.array)) * 2
		}
	}
	n += int64(len(b.keys)) * 8
	return n
}
