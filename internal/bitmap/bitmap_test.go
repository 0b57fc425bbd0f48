package bitmap

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/race"
)

func TestAddContainsRemove(t *testing.T) {
	b := New()
	if b.Contains(5) {
		t.Fatalf("empty bitmap contains 5")
	}
	if !b.Add(5) || b.Add(5) {
		t.Fatalf("Add semantics wrong")
	}
	if !b.Contains(5) || b.Len() != 1 {
		t.Fatalf("bitmap state wrong after Add")
	}
	if !b.Remove(5) || b.Remove(5) {
		t.Fatalf("Remove semantics wrong")
	}
	if b.Contains(5) || !b.IsEmpty() {
		t.Fatalf("bitmap state wrong after Remove")
	}
}

func TestSparseToDenseConversion(t *testing.T) {
	b := New()
	// Push one container well past the array threshold and back.
	for i := uint64(0); i < 10000; i++ {
		b.Add(i)
	}
	if b.Len() != 10000 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := uint64(0); i < 10000; i++ {
		if !b.Contains(i) {
			t.Fatalf("lost %d after dense conversion", i)
		}
	}
	for i := uint64(0); i < 9500; i++ {
		b.Remove(i)
	}
	if b.Len() != 500 {
		t.Fatalf("Len = %d after removals", b.Len())
	}
	for i := uint64(9500); i < 10000; i++ {
		if !b.Contains(i) {
			t.Fatalf("lost %d after array conversion", i)
		}
	}
}

func TestIterateAscendingAcrossContainers(t *testing.T) {
	b := New()
	vals := []uint64{1, 100000, 65535, 65536, 1 << 40, 3, 1<<40 + 1}
	for _, v := range vals {
		b.Add(v)
	}
	got := b.Slice()
	want := append([]uint64(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("Slice len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Slice[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if m, ok := b.Min(); !ok || m != 1 {
		t.Fatalf("Min = %d, %v", m, ok)
	}
}

func TestIterateEarlyStop(t *testing.T) {
	b := New()
	for i := uint64(0); i < 100; i++ {
		b.Add(i)
	}
	n := 0
	b.Iterate(func(uint64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSetOperations(t *testing.T) {
	a, b := New(), New()
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
	}
	for i := uint64(50); i < 150; i++ {
		b.Add(i)
	}
	if got := a.And(b).Len(); got != 50 {
		t.Fatalf("And len = %d", got)
	}
	if got := a.AndLen(b); got != 50 {
		t.Fatalf("AndLen = %d", got)
	}
	if got := a.Or(b).Len(); got != 150 {
		t.Fatalf("Or len = %d", got)
	}
}

func TestEmptyContainerIsDropped(t *testing.T) {
	b := New()
	b.Add(70000)
	b.Remove(70000)
	if len(b.keys) != 0 || len(b.cs) != 0 {
		t.Fatalf("container leaked: keys=%v", b.keys)
	}
}

func TestBytesShrinksWithDensity(t *testing.T) {
	sparse := New()
	for i := 0; i < 100; i++ {
		sparse.Add(uint64(i) << 20) // one element per container
	}
	dense := New()
	for i := uint64(0); i < 100; i++ {
		dense.Add(i) // all in one array container
	}
	if dense.Bytes() >= sparse.Bytes() {
		t.Fatalf("dense (%d) not cheaper than scattered (%d)", dense.Bytes(), sparse.Bytes())
	}
}

// TestQuickAgainstMapSet checks random operation sequences against a
// reference set, including iteration order.
func TestQuickAgainstMapSet(t *testing.T) {
	f := func(seed int64, nops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		ref := make(map[uint64]bool)
		for i := 0; i < int(nops%2048); i++ {
			x := uint64(rng.Intn(1 << 18))
			switch rng.Intn(3) {
			case 0:
				if b.Add(x) == ref[x] {
					return false
				}
				ref[x] = true
			case 1:
				if b.Remove(x) != ref[x] {
					return false
				}
				delete(ref, x)
			case 2:
				if b.Contains(x) != ref[x] {
					return false
				}
			}
		}
		if b.Len() != len(ref) {
			return false
		}
		var prev uint64
		first := true
		ok := true
		n := 0
		b.Iterate(func(x uint64) bool {
			if !ref[x] || (!first && x <= prev) {
				ok = false
				return false
			}
			prev, first = x, false
			n++
			return true
		})
		return ok && n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAndLenAgainstElementwise checks AndLen against an element-wise
// intersection over random pairs whose chunks are absent, sparse
// (arrays) or dense (word sets), so every pair of container kinds —
// arrays of like lengths and of lengths far apart — chunks present in
// one operand only, and empty bitmaps all occur; and on one fixed
// skewed pair that random ones rarely give.
func TestAndLenAgainstElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := func() *Bitmap {
		b := New()
		width := []int{256, 4096, 1 << 16}[rng.Intn(3)]
		for hi := uint64(0); hi < 4; hi++ {
			switch rng.Intn(3) {
			case 1: // array, of 1 to 256 elements, log-uniform
				for range 1 + rng.Intn(1<<rng.Intn(9)) {
					b.Add(hi<<16 | uint64(rng.Intn(width)))
				}
			case 2: // word set
				for x := rng.Intn(8); x < 1<<16; x += 1 + rng.Intn(8) {
					b.Add(hi<<16 | uint64(x))
				}
			}
		}
		return b
	}
	kind := func(b *Bitmap, hi uint64) (string, int) {
		i, ok := b.find(hi)
		switch {
		case !ok:
			return "absent", 0
		case b.cs[i].words != nil:
			return "words", 0
		}
		return "array", len(b.cs[i].array)
	}
	check := func(a, b *Bitmap) {
		t.Helper()
		want := 0
		a.Iterate(func(x uint64) bool {
			if b.Contains(x) {
				want++
			}
			return true
		})
		if got, rev := a.AndLen(b), b.AndLen(a); got != want || rev != want {
			t.Fatalf("AndLen = %d, reversed %d, element-wise %d", got, rev, want)
		}
	}
	// A skewed pair in which the short array's second element is where
	// the search for its first, which the long array lacks, lands.
	short, long := New(), New()
	short.Add(1)
	short.Add(3)
	long.Add(0)
	for x := uint64(3); x < 200; x++ {
		long.Add(x)
	}
	check(short, long)
	seen := map[string]bool{}
	for range 300 {
		a, b := random(), random()
		check(a, b)
		for hi := uint64(0); hi < 4; hi++ {
			ka, na := kind(a, hi)
			kb, nb := kind(b, hi)
			k := []string{ka, kb}
			slices.Sort(k)
			if ka == "array" && kb == "array" && min(na, nb)*gallopRatio < max(na, nb) {
				k[1] += "-skewed"
			}
			seen[k[0]+"-"+k[1]] = true
		}
		if a.IsEmpty() || b.IsEmpty() {
			seen["empty"] = true
		}
	}
	for _, k := range []string{"array-array", "array-array-skewed", "array-words", "words-words", "absent-array", "absent-words", "empty"} {
		if !seen[k] {
			t.Errorf("no pair covered %s", k)
		}
	}
}

// TestMiddleChunkRemovedAndReadded drops the middle one of four chunks
// and adds it back: the containers slice must shift with the keys, so
// iteration stays ascending and Len and Bytes count exactly the chunks
// present (48 base, 40 + 8 per chunk, 2 per array element, 8 KiB per
// dense chunk).
func TestMiddleChunkRemovedAndReadded(t *testing.T) {
	b := New()
	var want []uint64
	for hi := uint64(0); hi < 4; hi++ {
		n := uint64(10)
		if hi == 3 {
			n = 5000 // dense
		}
		for lo := uint64(0); lo < n; lo++ {
			x := hi<<16 | lo*3
			b.Add(x)
			want = append(want, x)
		}
	}
	check := func(stage string, want []uint64, bytes int64) {
		t.Helper()
		if got := b.Slice(); !slices.Equal(got, want) {
			t.Fatalf("%s: Iterate gave %d elements, want %d in ascending order", stage, len(got), len(want))
		}
		if b.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", stage, b.Len(), len(want))
		}
		if b.Bytes() != bytes {
			t.Fatalf("%s: Bytes = %d, want %d", stage, b.Bytes(), bytes)
		}
	}
	dense := int64(40 + 8 + wordsPerContainer*8)
	check("four chunks", want, 48+3*(40+8+20)+dense)
	var rest []uint64
	for _, x := range want {
		if x>>16 == 1 {
			b.Remove(x)
		} else {
			rest = append(rest, x)
		}
	}
	check("middle chunk removed", rest, 48+2*(40+8+20)+dense)
	if b.Contains(1<<16) || !b.Contains(2<<16) || !b.Contains(3<<16|4998*3) {
		t.Fatal("membership wrong after removing the middle chunk")
	}
	for _, x := range want {
		if x>>16 == 1 {
			b.Add(x)
		}
	}
	check("middle chunk re-added", want, 48+3*(40+8+20)+dense)
}

// TestReadAllocs pins allocation-free reads: membership, counting,
// iteration and intersection counting walk the containers in place.
func TestReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a, b, sparse := New(), New(), New()
	for i := uint64(0); i < 20000; i++ {
		a.Add(i * 7)
		b.Add(i * 5)
		if i%50 == 0 {
			sparse.Add(i * 3)
		}
	}
	n := 0
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Contains", func() { a.Contains(7000) }},
		{"Len", func() { n += a.Len() }},
		{"Iterate", func() { a.Iterate(func(uint64) bool { n++; return true }) }},
		{"AndLen", func() { n += a.AndLen(b) + a.AndLen(sparse) + sparse.AndLen(sparse) }},
	} {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
	if n == 0 {
		t.Fatal("reads saw nothing")
	}
}

// TestArenaCopiesAreIndependent: copies carved from one arena next to
// each other stay apart from each other and from their sources, through
// writes that fill a carve's spare capacity, outgrow it, add and drop
// chunks and turn containers dense; each copy keeps its source's
// capacities.
func TestArenaCopiesAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srcs := make([]*Bitmap, 6)
	for i := range srcs {
		srcs[i] = New()
		for range 50 + 2000*i {
			srcs[i].Add(uint64(rng.Intn(200000)))
		}
	}
	var a Arena
	for _, b := range srcs {
		a.Reserve(b)
	}
	copies := make([]*Bitmap, len(srcs))
	before := make([][]uint64, len(srcs))
	want := make([]map[uint64]bool, len(srcs))
	for i, b := range srcs {
		copies[i] = a.Clone(b)
		if c := copies[i]; cap(c.keys) != cap(b.keys) || cap(c.cs) != cap(b.cs) {
			t.Fatalf("copy %d capacities %d/%d, source %d/%d", i, cap(c.keys), cap(c.cs), cap(b.keys), cap(b.cs))
		}
		before[i] = b.Slice()
		want[i] = map[uint64]bool{}
		for _, x := range before[i] {
			want[i][x] = true
		}
	}
	for i, c := range copies {
		for range 6000 {
			x := uint64(rng.Intn(400000))
			if rng.Intn(3) == 0 {
				c.Remove(x)
				delete(want[i], x)
			} else {
				c.Add(x)
				want[i][x] = true
			}
		}
	}
	for i := range srcs {
		if !slices.Equal(srcs[i].Slice(), before[i]) {
			t.Fatalf("source %d changed by writes into the copies", i)
		}
		var exp []uint64
		for x := range want[i] {
			exp = append(exp, x)
		}
		slices.Sort(exp)
		if got := copies[i].Slice(); !slices.Equal(got, exp) {
			t.Fatalf("copy %d holds %d values, want %d", i, len(got), len(exp))
		}
	}
}
