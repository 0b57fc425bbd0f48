package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/race"
)

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestPutGet(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		if !tr.Put(key(i*7%1000), []byte(fmt.Sprint(i*7%1000))) {
			t.Fatalf("Put(%d) reported existing key", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := tr.Get(key(i))
		if !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get(key(5000)); ok {
		t.Fatalf("Get of absent key succeeded")
	}
}

func TestPutReplaces(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), []byte("v1"))
	if tr.Put([]byte("k"), []byte("v2")) {
		t.Fatalf("replacement reported as new key")
	}
	if v, _ := tr.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("value not replaced: %q", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), key(i))
	}
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	for _, i := range perm[:n/2] {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	deleted := make(map[int]bool)
	for _, i := range perm[:n/2] {
		deleted[i] = true
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(key(i))
		if ok == deleted[i] {
			t.Fatalf("Get(%d) = %v, deleted = %v", i, ok, deleted[i])
		}
	}
	if tr.Delete(key(123456)) {
		t.Fatalf("Delete of absent key reported success")
	}
}

func TestScanOrdered(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(42))
	for _, i := range rng.Perm(5000) {
		tr.Put(key(i), nil)
	}
	c := tr.Scan()
	var prev []byte
	n := 0
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order at %d", n)
		}
		prev = append(prev[:0], k...)
		n++
	}
	if n != 5000 {
		t.Fatalf("scan visited %d keys", n)
	}
}

func TestSeekAndRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(key(i*2), nil) // even keys only
	}
	c := tr.Seek(key(51))
	k, _, ok := c.Next()
	if !ok || binary.BigEndian.Uint64(k) != 52 {
		t.Fatalf("Seek(51) landed on %v", k)
	}
	var got []uint64
	for c := tr.Seek(key(10)); ; {
		k, _, ok := c.Next()
		if !ok || bytes.Compare(k, key(20)) >= 0 {
			break
		}
		got = append(got, binary.BigEndian.Uint64(k))
	}
	want := []uint64{10, 12, 14, 16, 18}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New()
	for _, s := range []string{"ab", "abc", "abd", "ac", "b", "aa"} {
		tr.Put([]byte(s), nil)
	}
	var got []string
	tr.AscendPrefix([]byte("ab"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint([]string{"ab", "abc", "abd"}) {
		t.Fatalf("prefix scan = %v", got)
	}
	// Early stop.
	count := 0
	tr.AscendPrefix([]byte("a"), func(_, _ []byte) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBulkBuildMatchesIncremental(t *testing.T) {
	const n = 3000
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i * 3)
		vals[i] = []byte(fmt.Sprint(i))
	}
	bulk := New()
	if err := bulk.BulkBuild(keys, vals); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != n {
		t.Fatalf("bulk Len = %d", bulk.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := bulk.Get(key(i * 3))
		if !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("bulk Get(%d) = %q, %v", i*3, v, ok)
		}
	}
	// Scans must be ordered and complete, and further Puts must work.
	seen := 0
	var prev []byte
	c := bulk.Scan()
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("bulk scan out of order")
		}
		prev = append(prev[:0], k...)
		seen++
	}
	if seen != n {
		t.Fatalf("bulk scan saw %d", seen)
	}
	bulk.Put(key(1), []byte("x"))
	if v, ok := bulk.Get(key(1)); !ok || string(v) != "x" {
		t.Fatalf("Put after bulk failed")
	}
}

func TestBulkBuildRejectsUnsorted(t *testing.T) {
	tr := New()
	if err := tr.BulkBuild([][]byte{key(2), key(1)}, [][]byte{nil, nil}); err == nil {
		t.Fatalf("unsorted BulkBuild accepted")
	}
	if err := tr.BulkBuild([][]byte{key(1)}, [][]byte{nil, nil}); err == nil {
		t.Fatalf("mismatched lengths accepted")
	}
	// nil values: every key maps to nil.
	if err := tr.BulkBuild([][]byte{key(1), key(2)}, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(key(2)); !ok || v != nil || tr.Len() != 2 {
		t.Fatalf("nil-valued BulkBuild: Get = %q, %v; Len = %d", v, ok, tr.Len())
	}
}

func TestBytesAccounting(t *testing.T) {
	tr := New()
	if tr.Bytes() < 0 {
		t.Fatalf("negative bytes on empty tree")
	}
	for i := 0; i < 100; i++ {
		tr.Put(key(i), bytes.Repeat([]byte("x"), 100))
	}
	grown := tr.Bytes()
	if grown < 100*100 {
		t.Fatalf("Bytes = %d does not cover payload", grown)
	}
	for i := 0; i < 100; i++ {
		tr.Delete(key(i))
	}
	if tr.Bytes() >= grown {
		t.Fatalf("Bytes did not shrink after deletes: %d", tr.Bytes())
	}
}

// TestQuickAgainstMap drives random Put/Delete/Get sequences over a key
// space large enough for trees of depth 3 and more — so a rebalance that
// walks its recorded path wrongly cannot hide at depth 2 — first growing
// the tree, then shrinking it through merges and root collapses, then
// draining it to a handful of keys. After each phase it checks the tree
// against a reference map: scans, ranges, prefixes, the leaf chain and
// the space accounting.
func TestQuickAgainstMap(t *testing.T) {
	const keySpace = 20_000
	maxDepth := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := make(map[string]string)
		for _, putShare := range []int{80, 20, 2} { // grow, shrink, drain
			for n := 0; n < 2*keySpace; n++ {
				k := key(rng.Intn(keySpace))
				switch r := rng.Intn(100); {
				case r < putShare:
					v := fmt.Sprint(rng.Intn(1000))
					tr.Put(k, []byte(v))
					ref[string(k)] = v
				case r < 95:
					_, had := ref[string(k)]
					delete(ref, string(k))
					if tr.Delete(k) != had {
						t.Logf("seed %d: Delete(%x) != %v", seed, k, had)
						return false
					}
				default:
					v, ok := tr.Get(k)
					rv, rok := ref[string(k)]
					if ok != rok || (ok && string(v) != rv) || tr.Has(k) != rok {
						t.Logf("seed %d: Get(%x) = %q, %v; want %q, %v", seed, k, v, ok, rv, rok)
						return false
					}
				}
			}
			maxDepth = max(maxDepth, tr.depth())
			if err := checkAgainst(tr, ref, rng, keySpace); err != nil {
				t.Logf("seed %d, put share %d%%: %v", seed, putShare, err)
				return false
			}
		}
		// Drain to a handful of keys: inner nodes go sparse and leaves
		// become only children, with nothing left to merge with.
		doomed := slices.Sorted(maps.Keys(ref))
		rng.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
		for _, k := range doomed[min(10, len(doomed)):] {
			delete(ref, k)
			tr.Delete([]byte(k))
		}
		if err := checkAgainst(tr, ref, rng, keySpace); err != nil {
			t.Logf("seed %d, drained: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
	if maxDepth < 3 {
		t.Errorf("deepest tree had %d levels, want >= 3", maxDepth)
	}
}

// checkAgainst compares tr with the reference map ref.
func checkAgainst(tr *Tree, ref map[string]string, rng *rand.Rand, keySpace int) error {
	if tr.Len() != len(ref) {
		return fmt.Errorf("Len = %d, want %d", tr.Len(), len(ref))
	}
	want := slices.Sorted(maps.Keys(ref))
	// Full scan equals the sorted reference.
	var got []string
	c := tr.Scan()
	for k, v, ok := c.Next(); ok; k, v, ok = c.Next() {
		if string(v) != ref[string(k)] {
			return fmt.Errorf("scan: %x = %q, want %q", k, v, ref[string(k)])
		}
		got = append(got, string(k))
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("scan visited %d keys, want %d in order", len(got), len(want))
	}
	// The leaf chain links the tree's leaves left to right, both ways.
	leaves := tr.leaves()
	var prev *leaf
	for i, l := range leaves {
		if (i == 0) != (l == tr.first) || l.prev != prev || (prev != nil && prev.next != l) {
			return fmt.Errorf("leaf chain broken at leaf %d of %d", i, len(leaves))
		}
		prev = l
	}
	if prev.next != nil {
		return fmt.Errorf("last leaf has a next")
	}
	// Space accounting: every node but New's first leaf, plus payload.
	nodes, payload := tr.recount()
	if b := int64(96*(nodes-1)) + payload; tr.Bytes() != b {
		return fmt.Errorf("Bytes = %d, tree walk counts %d (%d nodes)", tr.Bytes(), b, nodes)
	}
	collect := func(scan func(fn func(k, _ []byte) bool)) []string {
		var out []string
		scan(func(k, _ []byte) bool { out = append(out, string(k)); return true })
		return out
	}
	for i := 0; i < 20; i++ {
		lo, end := key(rng.Intn(keySpace)), key(rng.Intn(keySpace+1))
		if i == 0 {
			end = nil // unbounded
		}
		var exp []string
		for _, k := range want {
			if k >= string(lo) && (end == nil || k < string(end)) {
				exp = append(exp, k)
			}
		}
		var r []string
		for c := tr.Seek(lo); ; {
			k, _, ok := c.Next()
			if !ok || (end != nil && bytes.Compare(k, end) >= 0) {
				break
			}
			r = append(r, string(k))
		}
		if !slices.Equal(r, exp) {
			return fmt.Errorf("Seek(%x) up to %x = %d keys, want %d", lo, end, len(r), len(exp))
		}
		prefix := key(rng.Intn(keySpace))[:6+i%2] // the whole tree, or 256 keys
		exp = exp[:0]
		for _, k := range want {
			if bytes.HasPrefix([]byte(k), prefix) {
				exp = append(exp, k)
			}
		}
		if r := collect(func(fn func(k, _ []byte) bool) { tr.AscendPrefix(prefix, fn) }); !slices.Equal(r, exp) {
			return fmt.Errorf("AscendPrefix(%x) = %d keys, want %d", prefix, len(r), len(exp))
		}
	}
	return nil
}

// depth is the number of levels, leaves included.
func (t *Tree) depth() int {
	d := 1
	for n := t.root; ; d++ {
		in, ok := n.(*inner)
		if !ok {
			return d
		}
		n = in.children[0]
	}
}

// leaves returns the leaves in tree order.
func (t *Tree) leaves() []*leaf {
	var out []*leaf
	var walk func(node)
	walk = func(n node) {
		switch x := n.(type) {
		case *leaf:
			out = append(out, x)
		case *inner:
			for _, c := range x.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

// recount walks the tree: its node count and key+value payload.
func (t *Tree) recount() (nodes int, payload int64) {
	var walk func(node)
	walk = func(n node) {
		nodes++
		switch x := n.(type) {
		case *leaf:
			for i := range x.ents {
				payload += t.payload(x.key(i), x.val(i))
			}
		case *inner:
			for _, c := range x.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return nodes, payload
}

// TestReadAllocs pins the allocation-free read path: reads descend
// without recording a path and iterate with a stack cursor, and a Put
// that replaces a value records its path in a stack array.
func TestReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := New()
	for i := 0; i < 5000; i++ {
		tr.Put(key(i), key(i))
	}
	if tr.depth() < 3 {
		t.Fatalf("tree has %d levels, want >= 3", tr.depth())
	}
	k, v := key(1234), []byte("v")
	prefix := k[:7]
	n := 0
	visit := func(_, _ []byte) bool { n++; return true }
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Get", func() { tr.Get(k) }},
		{"Has", func() { tr.Has(k) }},
		{"Seek", func() { tr.Seek(k).Next() }},
		{"AscendPrefix", func() { tr.AscendPrefix(prefix, visit) }},
		{"Put existing", func() { tr.Put(k, v) }},
	} {
		if a := testing.AllocsPerRun(100, c.fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
	if n == 0 {
		t.Fatal("scans visited nothing")
	}
}

// TestReturnedSlicesOutliveMutation pins the arena invariant: bytes once
// written to a leaf are never overwritten. It captures the slices Get,
// Seek, Cursor.Next and AscendPrefix return, appends to each (which must
// copy, not write into the arena), then drives thousands of random Puts
// and Deletes — growing, replacing and draining the tree, so leaves
// split, borrow, merge and compact — and a BulkBuild, and checks that
// every captured slice still holds the bytes it held when captured.
func TestReturnedSlicesOutliveMutation(t *testing.T) {
	const keySpace = 3000
	rng := rand.New(rand.NewSource(5))
	tr := New()
	type capture struct{ got, want []byte }
	var caps []capture
	grab := func(b []byte) {
		caps = append(caps, capture{b, bytes.Clone(b)})
		_ = append(b, 0xEE) // fits any spare capacity; must not reach the arena
	}
	value := func() []byte { return bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(24)) }
	probe := func() {
		k := key(rng.Intn(keySpace))
		if v, ok := tr.Get(k); ok {
			grab(v)
		}
		c := tr.Seek(k)
		for i := 0; i < 40; i++ { // runs over leaf boundaries
			k, v, ok := c.Next()
			if !ok {
				break
			}
			grab(k)
			grab(v)
		}
		tr.AscendPrefix(k[:6], func(k, v []byte) bool {
			grab(k)
			grab(v)
			return rng.Intn(8) != 0
		})
	}
	maxLeaves := 0
	for _, putShare := range []int{90, 60, 50, 10} { // grow, churn, replace, drain
		for n := 0; n < 3*keySpace; n++ {
			if k := key(rng.Intn(keySpace)); rng.Intn(100) < putShare {
				tr.Put(k, value())
			} else {
				tr.Delete(k)
			}
			if n%50 == 0 {
				probe()
			}
		}
		maxLeaves = max(maxLeaves, len(tr.leaves()))
	}
	if drained := len(tr.leaves()); maxLeaves < 50 || drained > maxLeaves/4 {
		t.Fatalf("leaves peaked at %d and drained to %d: want splits, then merges", maxLeaves, drained)
	}
	// Replacing one key's value over and over kills its leaf's arena
	// until the leaf compacts: every replacement adds dead bytes, and
	// only a compaction clears them.
	k := key(keySpace / 2)
	tr.Put(k, value())
	l := tr.leafFor(k)
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("a leaf replacing one value 1000 times never compacted")
		}
		tr.Put(k, bytes.Repeat([]byte{byte(i)}, 20))
		probe()
		if l.dead == 0 {
			break
		}
	}
	keys, vals := make([][]byte, 0, keySpace), make([][]byte, 0, keySpace)
	for i := 0; i < keySpace; i += 2 {
		keys, vals = append(keys, key(i)), append(vals, value())
	}
	if err := tr.BulkBuild(keys, vals); err != nil {
		t.Fatal(err)
	}
	probe()
	for i := 0; i < keySpace; i++ {
		tr.Put(key(i), value())
	}
	for i, c := range caps {
		if !bytes.Equal(c.got, c.want) {
			t.Fatalf("captured slice %d of %d changed: %x, was %x", i, len(caps), c.got, c.want)
		}
	}
	if len(caps) < 1000 {
		t.Fatalf("only %d captures", len(caps))
	}
}

// TestClone: a clone holds the tree's pairs, leaf for leaf with the
// same arena and entry-table capacities, and writes into either tree
// afterwards, overwrites and deletes included, never reach the other.
func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const keySpace = 3000
	write := func(tr *Tree, ref map[string]string, n int, tag string) {
		for i := 0; i < n; i++ {
			k := key(rng.Intn(keySpace))
			if rng.Intn(4) == 0 {
				tr.Delete(k)
				delete(ref, string(k))
			} else {
				v := fmt.Sprint(tag, i)
				tr.Put(k, []byte(v))
				ref[string(k)] = v
			}
		}
	}
	tr, ref := New(), map[string]string{}
	write(tr, ref, 4000, "a")
	c, cref := tr.Clone(), maps.Clone(ref)
	if c.depth() < 3 {
		t.Fatalf("tree has %d levels, want >= 3", c.depth())
	}
	for i, l := range tr.leaves() {
		cl := c.leaves()[i]
		if len(cl.buf) != len(l.buf) || cap(cl.buf) != cap(l.buf) || len(cl.ents) != len(l.ents) || cap(cl.ents) != cap(l.ents) || cl.dead != l.dead {
			t.Fatalf("leaf %d: clone arena %d/%d, entries %d/%d; tree %d/%d, %d/%d",
				i, len(cl.buf), cap(cl.buf), len(cl.ents), cap(cl.ents), len(l.buf), cap(l.buf), len(l.ents), cap(l.ents))
		}
	}
	write(c, cref, 2000, "c")
	write(tr, ref, 2000, "t")
	for _, x := range []struct {
		tr  *Tree
		ref map[string]string
	}{{tr, ref}, {c, cref}} {
		if err := checkAgainst(x.tr, x.ref, rng, keySpace); err != nil {
			t.Fatal(err)
		}
	}
}
