package lsm

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func benchStore(n int, cache bool) *Store {
	opts := DefaultOptions()
	if cache {
		opts.CachePrefixLen = 8
	}
	s := New(opts)
	for i := 0; i < n; i++ {
		var k [12]byte
		binary.BigEndian.PutUint64(k[:], uint64(i%1000)) // 1000 rows
		binary.BigEndian.PutUint32(k[8:], uint32(i))
		s.Put(k[:], []byte(fmt.Sprint(i)))
	}
	s.Flush()
	return s
}

// BenchmarkPut measures the Titan-style write path (memtable insert +
// flush amortization).
func BenchmarkPut(b *testing.B) {
	s := New(DefaultOptions())
	var k [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		s.Put(k[:], k[:])
	}
}

// BenchmarkDelete measures the tombstone write that makes Titan's
// deletions faster than its insertions (Figure 3(c)).
func BenchmarkDelete(b *testing.B) {
	s := New(DefaultOptions())
	var k [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		s.Delete(k[:])
	}
}

func BenchmarkGetAcrossRuns(b *testing.B) {
	s := benchStore(100_000, false)
	var k [12]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i%1000))
		binary.BigEndian.PutUint32(k[8:], uint32(i%100_000))
		s.Get(k[:])
	}
}

// BenchmarkScanPrefix contrasts the row read with and without the v1.0
// row cache — the ablation behind Titan's cache-flattered Figure 2
// numbers.
func BenchmarkScanPrefix(b *testing.B) {
	for _, cache := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", cache), func(b *testing.B) {
			s := benchStore(100_000, cache)
			var p [8]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(p[:], uint64(i%1000))
				n := 0
				s.ScanPrefix(p[:], func(_, _ []byte) bool { n++; return true })
			}
		})
	}
}
