// Package btree implements an in-memory B+Tree over []byte keys with
// []byte values, ordered lexicographically (bytes.Compare).
//
// It is the index substrate for the engines that the paper describes as
// B+Tree-based: the BlazeGraph-style triple store builds its SPO/POS/OSP
// statement indexes on it, and the Sqlg-style relational engine builds
// its primary-key and foreign-key indexes on it. The tree keeps leaves in
// a doubly-linked list so range scans (prefix scans over triples, index
// range lookups) stream in key order without re-descending.
//
// The structure deliberately pays the costs the paper attributes to the
// architecture: every insertion rebalances eagerly (node splits propagate
// up immediately), which is why the triple store's per-statement loading
// is slow unless its bulk path is used (see BulkBuild).
//
// What the paper does not price is heap churn, so reads never allocate:
// Get, Has, Seek and AscendPrefix descend without recording
// a path, and scans iterate on the stack. Only Put and Delete record the
// descent path their rebalancing walks back up, in a fixed stack array.
//
// Nor does it price per-entry pointers. Each leaf packs its pairs into
// one append-only byte arena, indexed by a small key-ordered entry
// table, so a leaf is two allocations however many keys it holds and
// the garbage collector scans none of its bytes. Put and BulkBuild copy
// keys and values in; the tree keeps no caller slice. Bytes once
// written to an arena are never overwritten: a replaced or deleted
// entry only counts its bytes as dead, and once more than half of an
// arena is dead the leaf rewrites its live entries into a new array,
// leaving the old one to whoever still holds slices of it. Splits give
// both halves new arenas. So a slice returned by Get, Seek,
// Cursor.Next or AscendPrefix keeps its bytes after any
// later mutation, and its capacity ends where it ends, so a caller's
// append copies instead of writing into the arena. Inner separators are
// copies too, so they pin no leaf arena. Tree.Bytes is the modelled
// footprint (payload plus per-entry and per-node overhead) and does not
// depend on this layout.
package btree

import (
	"bytes"
	"fmt"
)

// degree is the maximum number of children of an internal node. 32 keeps
// node scans within a cache line or two while producing realistic depth.
const degree = 32

const (
	maxKeys = degree - 1
	minKeys = maxKeys / 2
)

// entry locates one pair in its leaf's arena: the key is
// buf[off:off+klen] and the value follows it.
type entry struct{ off, klen, vlen uint32 }

// nilVal is the vlen of a nil value, which reads back as nil, not empty.
const nilVal = ^uint32(0)

// size is the number of arena bytes the entry occupies.
func (e entry) size() int {
	if e.vlen == nilVal {
		return int(e.klen)
	}
	return int(e.klen + e.vlen)
}

type leaf struct {
	buf        []byte  // append-only arena
	ents       []entry // in key order
	dead       int     // arena bytes no entry refers to
	next, prev *leaf
}

type inner struct {
	keys     [][]byte // len(children)-1 separators, owned copies
	children []node
}

type node interface{ isNode() }

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// key returns the i-th key, capped so that an append cannot reach the
// arena.
func (l *leaf) key(i int) []byte {
	e := l.ents[i]
	end := e.off + e.klen
	return l.buf[e.off:end:end]
}

// val returns the i-th value, capped like key.
func (l *leaf) val(i int) []byte {
	e := l.ents[i]
	if e.vlen == nilVal {
		return nil
	}
	start := e.off + e.klen
	end := start + e.vlen
	return l.buf[start:end:end]
}

// add appends key and value to the arena and returns their entry.
func (l *leaf) add(key, value []byte) entry {
	e := entry{off: uint32(len(l.buf)), klen: uint32(len(key)), vlen: nilVal}
	l.buf = append(l.buf, key...)
	if value != nil {
		e.vlen = uint32(len(value))
		l.buf = append(l.buf, value...)
	}
	return e
}

// drop retires the i-th entry's bytes, compacting the arena if they tip
// it over half dead.
func (l *leaf) drop(i int) {
	l.dead += l.ents[i].size()
	l.ents = removeAt(l.ents, i)
	l.maybeCompact()
}

func (l *leaf) maybeCompact() {
	if 2*l.dead > len(l.buf) {
		l.repack(l.ents)
	}
}

// repack rebuilds l from the entries ents of l's current arena (which
// may be a subslice of l.ents) into a new arena and entry table sized to
// fit. The old arena is left untouched.
func (l *leaf) repack(ents []entry) {
	n := 0
	for _, e := range ents {
		n += e.size()
	}
	var buf []byte
	if n > 0 {
		buf = make([]byte, 0, n)
	}
	out := make([]entry, len(ents))
	for i, e := range ents {
		sz := uint32(e.size())
		out[i] = entry{off: uint32(len(buf)), klen: e.klen, vlen: e.vlen}
		buf = append(buf, l.buf[e.off:e.off+sz]...)
	}
	l.buf, l.ents, l.dead = buf, out, 0
}

// Tree is a B+Tree. The zero value is not usable; call New.
type Tree struct {
	root  node
	first *leaf // leftmost leaf, head of the scan list
	size  int
	bytes int64 // space accounting: key+value payload plus node overhead
}

// New returns an empty tree.
func New() *Tree {
	l := &leaf{}
	return &Tree{root: l, first: l}
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Bytes returns an approximation of the memory footprint of the tree:
// payload bytes plus per-entry and per-node overhead. It backs the space
// occupancy experiment (Figure 1).
func (t *Tree) Bytes() int64 { return t.bytes }

func (t *Tree) payload(k, v []byte) int64 { return int64(len(k)+len(v)) + 48 }

// Get returns the value stored under key, or nil and false.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	l := t.leafFor(key)
	i, ok := l.search(key)
	if !ok {
		return nil, false
	}
	return l.val(i), true
}

// Has reports whether key is present.
func (t *Tree) Has(key []byte) bool {
	l := t.leafFor(key)
	_, ok := l.search(key)
	return ok
}

func (l *leaf) search(key []byte) (int, bool) {
	buf, ents := l.buf, l.ents
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := ents[mid]
		if bytes.Compare(buf[e.off:e.off+e.klen], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ents) {
		return lo, false
	}
	e := ents[lo]
	return lo, bytes.Equal(buf[e.off:e.off+e.klen], key)
}

func (in *inner) childIndex(key []byte) int {
	lo, hi := 0, len(in.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(in.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafFor descends to the leaf that owns key: the read-only descent,
// which records no path.
func (t *Tree) leafFor(key []byte) *leaf {
	n := t.root
	for {
		switch x := n.(type) {
		case *leaf:
			return x
		case *inner:
			n = x.children[x.childIndex(key)]
		}
	}
}

// findLeaf is leafFor for mutations: it appends the path of inner nodes
// and child indexes to path, for rebalancing.
func (t *Tree) findLeaf(key []byte, path []pathElem) (*leaf, []pathElem) {
	n := t.root
	for {
		switch x := n.(type) {
		case *leaf:
			return x, path
		case *inner:
			i := x.childIndex(key)
			path = append(path, pathElem{x, i})
			n = x.children[i]
		}
	}
}

type pathElem struct {
	n   *inner
	idx int
}

// pathDepth sizes the stack array a mutation records its path in: a
// tree of degree 32 needs more levels only beyond 2^32 keys, and append
// falls back to the heap if it ever does.
const pathDepth = 8

// Put copies key→value into the tree, replacing any existing value. It
// returns true if the key was new. Replacing a value with equal bytes
// writes nothing.
func (t *Tree) Put(key, value []byte) bool {
	var buf [pathDepth]pathElem
	l, path := t.findLeaf(key, buf[:0])
	i, ok := l.search(key)
	if ok {
		old := l.val(i)
		if (old == nil) == (value == nil) && bytes.Equal(old, value) {
			return false
		}
		t.bytes += int64(len(value) - len(old))
		l.dead += l.ents[i].size()
		l.ents[i] = l.add(key, value)
		l.maybeCompact()
		return false
	}
	l.ents = insertAt(l.ents, i, l.add(key, value))
	t.size++
	t.bytes += t.payload(key, value)
	if len(l.ents) > maxKeys {
		t.splitLeaf(l, path)
	}
	return true
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
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

func (t *Tree) splitLeaf(l *leaf, path []pathElem) {
	mid := len(l.ents) / 2
	right := &leaf{buf: l.buf, next: l.next, prev: l}
	right.repack(l.ents[mid:])
	l.repack(l.ents[:mid])
	if l.next != nil {
		l.next.prev = right
	}
	l.next = right
	t.bytes += 96 // new node overhead
	t.insertIntoParent(path, bytes.Clone(right.key(0)), l, right)
}

func (t *Tree) insertIntoParent(path []pathElem, sep []byte, left, right node) {
	if len(path) == 0 {
		t.root = &inner{keys: [][]byte{sep}, children: []node{left, right}}
		t.bytes += 96
		return
	}
	pe := path[len(path)-1]
	p := pe.n
	p.keys = insertAt(p.keys, pe.idx, sep)
	p.children = insertAt(p.children, pe.idx+1, right)
	if len(p.children) > degree {
		t.splitInner(p, path[:len(path)-1])
	}
}

func (t *Tree) splitInner(in *inner, path []pathElem) {
	mid := len(in.keys) / 2
	sep := in.keys[mid]
	right := &inner{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	t.bytes += 96
	t.insertIntoParent(path, sep, in, right)
}

// Delete removes key. It returns true if the key was present.
//
// Rebalancing on delete uses borrowing/merging of leaves; inner nodes are
// allowed to become sparse (a common implementation simplification that
// preserves ordering invariants and amortized performance).
func (t *Tree) Delete(key []byte) bool {
	var buf [pathDepth]pathElem
	l, path := t.findLeaf(key, buf[:0])
	i, ok := l.search(key)
	if !ok {
		return false
	}
	t.bytes -= t.payload(key, l.val(i))
	l.drop(i)
	t.size--
	if len(l.ents) >= minKeys || len(path) == 0 {
		return true
	}
	t.rebalanceLeaf(l, path)
	return true
}

func (t *Tree) rebalanceLeaf(l *leaf, path []pathElem) {
	pe := path[len(path)-1]
	p, idx := pe.n, pe.idx
	// Borrow from the right sibling when possible.
	if idx+1 < len(p.children) {
		r := p.children[idx+1].(*leaf)
		if len(r.ents) > minKeys {
			l.ents = append(l.ents, l.add(r.key(0), r.val(0)))
			r.drop(0)
			p.keys[idx] = bytes.Clone(r.key(0))
			return
		}
	}
	// Borrow from the left sibling.
	if idx > 0 {
		lft := p.children[idx-1].(*leaf)
		if len(lft.ents) > minKeys {
			last := len(lft.ents) - 1
			l.ents = insertAt(l.ents, 0, l.add(lft.key(last), lft.val(last)))
			lft.drop(last)
			p.keys[idx-1] = bytes.Clone(l.key(0))
			return
		}
	}
	// Merge with a sibling.
	switch {
	case idx+1 < len(p.children):
		r := p.children[idx+1].(*leaf)
		l.absorb(r)
		p.keys = removeAt(p.keys, idx)
		p.children = removeAt(p.children, idx+1)
	case idx > 0:
		lft := p.children[idx-1].(*leaf)
		lft.absorb(l)
		p.keys = removeAt(p.keys, idx-1)
		p.children = removeAt(p.children, idx)
	default:
		// The only child of a sparse parent: nothing to merge with, and
		// no node freed.
		return
	}
	t.bytes -= 96 // the merged-away leaf
	t.collapseRoot()
}

// absorb appends every entry of its right neighbour r, copying r's
// bytes into l's arena, and unlinks r.
func (l *leaf) absorb(r *leaf) {
	for i := range r.ents {
		l.ents = append(l.ents, l.add(r.key(i), r.val(i)))
	}
	l.next = r.next
	if r.next != nil {
		r.next.prev = l
	}
}

// collapseRoot shrinks the tree height when the root lost all separators.
func (t *Tree) collapseRoot() {
	if r, ok := t.root.(*inner); ok && len(r.children) == 1 {
		t.root = r.children[0]
		t.bytes -= 96
	}
}

// Cursor iterates key/value pairs in ascending key order. Get one from
// Seek or Scan; the zero Cursor is not usable.
type Cursor struct {
	l *leaf
	i int
}

// Next returns the next pair, or ok=false at the end. It stays within
// the compiler's inlining budget, so scan loops pay no call per pair.
func (c *Cursor) Next() (key, value []byte, ok bool) {
	for c.i >= len(c.l.ents) {
		if c.l.next == nil {
			return nil, nil, false
		}
		c.l, c.i = c.l.next, 0
	}
	e := c.l.ents[c.i]
	c.i++
	key = c.l.buf[e.off:][:e.klen:e.klen]
	if e.vlen != nilVal {
		value = c.l.buf[e.off+e.klen:][:e.vlen:e.vlen]
	}
	return key, value, true
}

// Seek positions a cursor at the first key >= start.
func (t *Tree) Seek(start []byte) *Cursor {
	c := t.seek(start)
	return &c
}

func (t *Tree) seek(start []byte) Cursor {
	l := t.leafFor(start)
	i, _ := l.search(start)
	return Cursor{l: l, i: i}
}

// Scan positions a cursor at the smallest key.
func (t *Tree) Scan() *Cursor { return &Cursor{l: t.first} }

// AscendPrefix calls fn for every pair whose key begins with prefix,
// in key order, until fn returns false. It walks each leaf's entry
// table directly, holding the leaf's arena, rather than through a
// Cursor: the triple store's statement scans spend their time here.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key, value []byte) bool) {
	l := t.leafFor(prefix)
	i, _ := l.search(prefix)
	for ; l != nil; l, i = l.next, 0 {
		buf := l.buf
		for _, e := range l.ents[i:] {
			k := buf[e.off:][:e.klen:e.klen]
			if !bytes.HasPrefix(k, prefix) {
				return
			}
			var v []byte
			if e.vlen != nilVal {
				v = buf[e.off+e.klen:][:e.vlen:e.vlen]
			}
			if !fn(k, v) {
				return
			}
		}
	}
}

// Clone returns an independent copy of t: a write into either tree
// never reaches the other. Every leaf's entry table, and every arena
// with room to grow, is copied with its length and capacity, carved
// from one allocation each, so a write into the copy does the work
// the same write does in t. A full arena (every one BulkBuild makes) is
// shared instead: its bytes are never overwritten, and the next append
// to it, in either tree, moves that tree's leaf to a new array. Inner
// separators are shared too: no write changes a separator's bytes (a
// new separator is always a new copy).
func (t *Tree) Clone() *Tree {
	var nLeaves, bufCap, entCap int
	for l := t.first; l != nil; l = l.next {
		nLeaves++
		if cap(l.buf) > len(l.buf) {
			bufCap += cap(l.buf)
		}
		entCap += cap(l.ents)
	}
	cl := &cloner{
		leaves: make([]leaf, nLeaves),
		buf:    make([]byte, bufCap),
		ents:   make([]entry, entCap),
	}
	c := &Tree{root: cl.node(t.root), size: t.size, bytes: t.bytes}
	c.first = &cl.leaves[0]
	return c
}

// cloner carves a Clone's leaves, arenas and entry tables from its
// three allocations, in leaf order.
type cloner struct {
	leaves []leaf
	buf    []byte
	ents   []entry
	n      int   // leaves carved so far
	prev   *leaf // the last leaf carved
}

// node copies n and everything below it, linking the copied leaves in
// key order.
func (cl *cloner) node(n node) node {
	switch x := n.(type) {
	case *leaf:
		l := &cl.leaves[cl.n]
		cl.n++
		if l.buf = x.buf; cap(x.buf) > len(x.buf) {
			l.buf, cl.buf = cl.buf[:len(x.buf):cap(x.buf)], cl.buf[cap(x.buf):]
			copy(l.buf, x.buf)
		}
		l.ents, cl.ents = cl.ents[:len(x.ents):cap(x.ents)], cl.ents[cap(x.ents):]
		copy(l.ents, x.ents)
		l.dead = x.dead
		if cl.prev != nil {
			cl.prev.next, l.prev = l, cl.prev
		}
		cl.prev = l
		return l
	case *inner:
		in := &inner{
			keys:     append(make([][]byte, 0, cap(x.keys)), x.keys...),
			children: make([]node, len(x.children), cap(x.children)),
		}
		for i, ch := range x.children {
			in.children[i] = cl.node(ch)
		}
		return in
	}
	return nil
}

// BulkBuild replaces the tree contents with copies of the given pairs,
// which must be sorted by key and free of duplicates; a nil vals gives
// every key a nil value. It builds leaves left to right without
// per-insert rebalancing — the "bulk loading" mode that the paper had
// to enable to load BlazeGraph in reasonable time. All leaves' arenas and entry tables are carved from one
// allocation each, capped so that a later insert into one leaf
// reallocates that leaf rather than writing into its neighbour.
func (t *Tree) BulkBuild(keys, vals [][]byte) error {
	if vals != nil && len(keys) != len(vals) {
		return fmt.Errorf("btree: BulkBuild: %d keys but %d values", len(keys), len(vals))
	}
	total := 0
	for i := range keys {
		if i > 0 && bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return fmt.Errorf("btree: BulkBuild: keys not strictly ascending at %d", i)
		}
		total += len(keys[i])
		if vals != nil {
			total += len(vals[i])
		}
	}
	*t = *New()
	if len(keys) == 0 {
		return nil
	}
	const fill = maxKeys * 3 / 4
	arena := make([]byte, 0, total)
	ents := make([]entry, len(keys))
	leaves := make([]leaf, (len(keys)+fill-1)/fill)
	// Separators copied into one buffer: the first key of every leaf
	// but the first.
	var sepBytes int
	for i := fill; i < len(keys); i += fill {
		sepBytes += len(keys[i])
	}
	seps := make([]byte, 0, sepBytes)
	level := make([]node, len(leaves))
	firstKeys := make([][]byte, len(leaves))
	for n := range leaves {
		i, j := n*fill, min((n+1)*fill, len(keys))
		l := &leaves[n]
		start := len(arena)
		for k := i; k < j; k++ {
			var val []byte
			if vals != nil {
				val = vals[k]
			}
			e := entry{off: uint32(len(arena) - start), klen: uint32(len(keys[k])), vlen: nilVal}
			arena = append(arena, keys[k]...)
			if val != nil {
				e.vlen = uint32(len(val))
				arena = append(arena, val...)
			}
			ents[k] = e
			t.bytes += t.payload(keys[k], val)
		}
		l.buf = arena[start:len(arena):len(arena)]
		l.ents = ents[i:j:j]
		if n > 0 {
			leaves[n-1].next = l
			l.prev = &leaves[n-1]
			s := len(seps)
			seps = append(seps, keys[i]...)
			firstKeys[n] = seps[s:len(seps):len(seps)]
		}
		level[n] = l
		t.bytes += 96
	}
	t.size = len(keys)
	t.first = &leaves[0]
	// Build inner levels bottom-up.
	for len(level) > 1 {
		var up []node
		var upKeys [][]byte
		const width = degree * 3 / 4
		for i := 0; i < len(level); i += width {
			j := min(i+width, len(level))
			in := &inner{children: append([]node(nil), level[i:j]...)}
			in.keys = append(in.keys, firstKeys[i+1:j]...)
			up = append(up, in)
			upKeys = append(upKeys, firstKeys[i])
			t.bytes += 96
		}
		level, firstKeys = up, upKeys
	}
	t.root = level[0]
	return nil
}
