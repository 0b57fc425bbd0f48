package bitmap

import (
	"math/rand"
	"testing"
)

// BenchmarkAdd measures the insert path behind the Sparksee engine's
// fastest-in-study CUD operations.
func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint64, b.N)
	for i := range xs {
		xs[i] = uint64(rng.Intn(1 << 24))
	}
	bm := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Add(xs[i])
	}
}

// BenchmarkLen measures the popcount-style counting behind the fast Q8/Q9.
func BenchmarkLen(b *testing.B) {
	bm := New()
	for i := uint64(0); i < 1_000_000; i++ {
		bm.Add(i * 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkContains(b *testing.B) {
	bm := New()
	for i := uint64(0); i < 1_000_000; i++ {
		bm.Add(i * 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Contains(uint64(i % 2_000_000))
	}
}

// BenchmarkAndLen measures the label-filter intersection of the
// Sparksee traversal path, for each pair of container kinds: a dense
// chunk is a word set, a sparse one an array.
func BenchmarkAndLen(b *testing.B) {
	dense, sparse, tiny := New(), New(), New()
	for i := uint64(0); i < 2<<16; i++ {
		if i%3 == 0 {
			dense.Add(i)
		}
		if i%61 == 0 {
			sparse.Add(i)
		}
	}
	for _, x := range []uint64{7, 122, 40_000, 70_000} {
		tiny.Add(x)
	}
	for _, c := range []struct {
		name string
		a, o *Bitmap
	}{
		{"words-words", dense, dense},
		{"array-words", sparse, dense},
		{"array-array", sparse, sparse},
		{"tiny-array", tiny, sparse},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.a.AndLen(c.o)
			}
		})
	}
}
