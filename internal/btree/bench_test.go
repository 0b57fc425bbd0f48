package btree

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func benchKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, rng.Uint64())
		keys[i] = k
	}
	return keys
}

// BenchmarkPut measures the per-insert rebalancing cost that makes the
// triple store's fine-grained loading slow (Figure 3(a)).
func BenchmarkPut(b *testing.B) {
	keys := benchKeys(b.N)
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i], nil)
	}
}

func benchTree(n int) (*Tree, [][]byte) {
	keys := benchKeys(n)
	tr := New()
	for _, k := range keys {
		tr.Put(k, k)
	}
	return tr, keys
}

func BenchmarkGet(b *testing.B) {
	const n = 100_000
	tr, keys := benchTree(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%n])
	}
}

// BenchmarkSeek is the descent every prefix and range scan starts with;
// like Get it must report 0 allocs/op.
func BenchmarkSeek(b *testing.B) {
	const n = 100_000
	tr, keys := benchTree(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Seek(keys[i%n]).Next()
	}
}

// BenchmarkBulkBuild measures the bulk path the paper had to enable for
// BlazeGraph, against per-insert loading of the same data.
func BenchmarkBulkBuild(b *testing.B) {
	const n = 100_000
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i))
		keys[i] = k
	}
	vals := make([][]byte, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New()
		if err := tr.BulkBuild(keys, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAscendPrefix is the triple store's statement-pattern scan
// (blaze's forSP/forPO/forS).
func BenchmarkAscendPrefix(b *testing.B) {
	const n = 100_000
	tr := New()
	for i := 0; i < n; i++ {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i))
		tr.Put(k, nil)
	}
	prefix := []byte{0, 0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.AscendPrefix(prefix, func(_, _ []byte) bool {
			count++
			return count < 100
		})
	}
}
