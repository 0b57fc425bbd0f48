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
	a, b := New(), New()
	for i := uint64(0); i < 20000; i++ {
		a.Add(i * 7)
		b.Add(i * 5)
	}
	n := 0
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Contains", func() { a.Contains(7000) }},
		{"Len", func() { n += a.Len() }},
		{"Iterate", func() { a.Iterate(func(uint64) bool { n++; return true }) }},
		{"AndLen", func() { n += a.AndLen(b) }},
	} {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
	if n == 0 {
		t.Fatal("reads saw nothing")
	}
}
