package lsm

import (
	"bytes"
	"fmt"
	"testing"
)

// TestStatsBytesAfterBulkLoad pins the accounting contract after a
// bulk load: one run, no flushes or compactions, empty memtable, and
// Bytes equal to the run's key+value payload plus per-pair overhead.
func TestStatsBytesAfterBulkLoad(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, CompactAt: 4})
	var keys, vals [][]byte
	var payload int64
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		v := bytes.Repeat([]byte("v"), i+1)
		keys = append(keys, k)
		vals = append(vals, v)
		payload += int64(len(k) + len(v))
	}
	if err := s.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	flushes, compacts, runs, _, _ := s.Stats()
	if flushes != 0 || compacts != 0 || runs != 1 {
		t.Fatalf("after bulk: flushes/compacts/runs = %d/%d/%d, want 0/0/1", flushes, compacts, runs)
	}
	want := payload + 6*int64(len(keys))
	if got := s.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}

	// A put lands in the memtable and grows the footprint.
	before := s.Bytes()
	s.Put([]byte("zzz"), []byte("tail"))
	if got := s.Bytes(); got <= before {
		t.Fatalf("Bytes() = %d after put, want > %d", got, before)
	}
}

// TestStatsBytesAcrossFlushCompactCycles walks the store through
// flush and compaction cycles, checking the counters move in step and
// Bytes stays consistent with the live structure.
func TestStatsBytesAcrossFlushCompactCycles(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, CompactAt: 3})
	for cycle := 0; cycle < 2; cycle++ {
		for i := 0; i < 5; i++ {
			s.Put([]byte(fmt.Sprintf("c%d-%d", cycle, i)), bytes.Repeat([]byte("x"), 10))
		}
		s.Flush()
		flushes, _, _, _, _ := s.Stats()
		if flushes != cycle+1 {
			t.Fatalf("cycle %d: flushes = %d, want %d", cycle, flushes, cycle+1)
		}
	}
	// Two runs so far; a third flush triggers auto-compaction at
	// CompactAt=3, collapsing back to one run.
	s.Put([]byte("final"), []byte("v"))
	s.Flush()
	flushes, compacts, runs, _, _ := s.Stats()
	if flushes != 3 || compacts != 1 || runs != 1 {
		t.Fatalf("after cycles: flushes/compacts/runs = %d/%d/%d, want 3/1/1", flushes, compacts, runs)
	}
	if s.mem.Len() != 0 {
		t.Fatalf("memtable not empty after flush: %d entries", s.mem.Len())
	}
	// All data lives in the single run now; Bytes must equal its size.
	if got := s.Bytes(); got != s.runs[0].bytes {
		t.Fatalf("Bytes() = %d, want run size %d", got, s.runs[0].bytes)
	}

	// Deleting everything and compacting drops tombstones and shadowed
	// versions: footprint returns to zero.
	s.ScanPrefix(nil, func(k, _ []byte) bool {
		s.Delete(append([]byte(nil), k...))
		return true
	})
	s.Flush()
	s.compact()
	if got := s.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after deleting everything and compacting, want 0", got)
	}
	if n := len(dumpStore(s)); n != 0 {
		t.Fatalf("%d live keys after deleting everything", n)
	}
}

// TestRowCacheInvalidationOnReplayApply is the regression the ISSUE
// asks for: writes that arrive through WAL replay go through applyPut,
// which must invalidate the row cache exactly like a live Put — a
// cached ScanPrefix result may never hide a replayed row.
func TestRowCacheInvalidationOnReplayApply(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, CompactAt: 4, CachePrefixLen: 2})
	s.Put([]byte("ab1"), []byte("v1"))
	s.Put([]byte("ab2"), []byte("v2"))

	scan := func() []string {
		var got []string
		s.ScanPrefix([]byte("ab"), func(k, _ []byte) bool {
			got = append(got, string(k))
			return true
		})
		return got
	}
	if got := scan(); len(got) != 2 {
		t.Fatalf("warmup scan: %v", got)
	}
	// Second scan must be served from the cache.
	_, _, _, hits0, _ := s.Stats()
	scan()
	if _, _, _, hits, _ := s.Stats(); hits != hits0+1 {
		t.Fatalf("cache hits = %d, want %d (prefix not cached?)", hits, hits0+1)
	}

	// A replay-path write under the cached prefix.
	s.applyPut([]byte("ab3"), []byte("v3"))
	if got := scan(); len(got) != 3 || got[2] != "ab3" {
		t.Fatalf("scan after applyPut = %v, want ab1 ab2 ab3", got)
	}

	// Same for the replay-path delete.
	s.applyDelete([]byte("ab1"))
	if got := scan(); len(got) != 2 || got[0] != "ab2" {
		t.Fatalf("scan after applyDelete = %v, want ab2 ab3", got)
	}
}
