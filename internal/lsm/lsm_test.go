package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/race"
)

func small() Options { return Options{FlushBytes: 256, CompactAt: 4} }

func TestPutGetAcrossFlushes(t *testing.T) {
	s := New(small())
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	flushes, _, runs, _, _ := s.Stats()
	if flushes == 0 || runs == 0 {
		t.Fatalf("expected flushes with tiny memtable: flushes=%d runs=%d", flushes, runs)
	}
	for i := 0; i < 200; i++ {
		v, ok := s.Get([]byte(fmt.Sprintf("k%04d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(k%04d) = %q %v", i, v, ok)
		}
	}
}

func TestNewestWins(t *testing.T) {
	s := New(small())
	key := []byte("key")
	for i := 0; i < 50; i++ {
		s.Put(key, []byte(fmt.Sprint(i)))
		s.Put([]byte(fmt.Sprintf("filler%d", i)), bytes.Repeat([]byte("x"), 40))
	}
	if v, ok := s.Get(key); !ok || string(v) != "49" {
		t.Fatalf("Get = %q %v, want 49", v, ok)
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := New(small())
	s.Put([]byte("a"), []byte("1"))
	s.Flush()
	s.Delete([]byte("a"))
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("tombstoned key visible via memtable")
	}
	s.Flush()
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("tombstoned key visible via runs")
	}
	s.compact()
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("tombstoned key visible after compaction")
	}
}

func TestCompactionDropsShadowedAndReducesRuns(t *testing.T) {
	s := New(Options{FlushBytes: 128, CompactAt: 100})
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("r%d", round)))
		}
		s.Flush()
	}
	_, _, runsBefore, _, _ := s.Stats()
	if runsBefore < 2 {
		t.Fatalf("expected multiple runs, got %d", runsBefore)
	}
	before := s.Bytes()
	s.compact()
	_, _, runsAfter, _, _ := s.Stats()
	if runsAfter != 1 {
		t.Fatalf("compaction left %d runs", runsAfter)
	}
	if s.Bytes() >= before {
		t.Fatalf("compaction did not reclaim shadowed space: %d -> %d", before, s.Bytes())
	}
	for i := 0; i < 20; i++ {
		if v, ok := s.Get([]byte(fmt.Sprintf("k%02d", i))); !ok || string(v) != "r4" {
			t.Fatalf("k%02d = %q %v", i, v, ok)
		}
	}
}

func TestScanPrefixMergedOrdered(t *testing.T) {
	s := New(small())
	// Row "r1:" spans memtable and several runs, with an update and a delete.
	s.Put([]byte("r1:c"), []byte("old"))
	s.Put([]byte("r1:a"), []byte("1"))
	s.Flush()
	s.Put([]byte("r1:b"), []byte("2"))
	s.Put([]byte("r1:d"), []byte("del-me"))
	s.Flush()
	s.Put([]byte("r1:c"), []byte("new"))
	s.Delete([]byte("r1:d"))
	s.Put([]byte("r2:a"), []byte("other-row"))

	var got []string
	s.ScanPrefix([]byte("r1:"), func(k, v []byte) bool {
		got = append(got, fmt.Sprintf("%s=%s", k, v))
		return true
	})
	want := []string{"r1:a=1", "r1:b=2", "r1:c=new"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestScanPrefixEarlyStop(t *testing.T) {
	s := New(small())
	for i := 0; i < 20; i++ {
		s.Put([]byte(fmt.Sprintf("p:%02d", i)), nil)
	}
	n := 0
	s.ScanPrefix([]byte("p:"), func(_, _ []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRowCacheHitAndInvalidation(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, CompactAt: 8, CachePrefixLen: 3})
	s.Put([]byte("r1:a"), []byte("1"))
	s.Put([]byte("r1:b"), []byte("2"))
	scan := func() int {
		n := 0
		s.ScanPrefix([]byte("r1:"), func(_, _ []byte) bool { n++; return true })
		return n
	}
	if scan() != 2 {
		t.Fatal("first scan wrong")
	}
	if scan() != 2 {
		t.Fatal("second scan wrong")
	}
	_, _, _, hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache hits=%d misses=%d", hits, misses)
	}
	s.Put([]byte("r1:c"), []byte("3"))
	if scan() != 3 {
		t.Fatal("cache not invalidated by write")
	}
}

func TestBulkLoad(t *testing.T) {
	s := New(small())
	var keys, vals [][]byte
	for i := 0; i < 100; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%03d", i)))
		vals = append(vals, []byte(fmt.Sprint(i)))
	}
	if err := s.BulkLoad(batchOf(keys, vals)); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get([]byte("k050")); !ok || string(v) != "50" {
		t.Fatalf("bulk get = %q %v", v, ok)
	}
	_, _, runs, _, _ := s.Stats()
	if runs != 1 {
		t.Fatalf("bulk load produced %d runs", runs)
	}
	if err := s.BulkLoad(batchOf([][]byte{[]byte("b"), []byte("a")}, [][]byte{{1}, {2}})); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
}

// TestBatchSortMatchesBytesOrder: Sort compares 16-byte prefixes as
// words first, so keys shorter than that, keys sharing it, and keys
// holding 0x00 (the padding) must still come out in bytes.Compare
// order.
func TestBatchSortMatchesBytesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{0x00, 0x01, 0x7f, 0x80, 0xff}
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < 3000 {
		k := make([]byte, rng.Intn(24))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(2) == 0 {
			k = append(bytes.Repeat([]byte{0x01}, 16), k...)
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	b := NewBatch(len(keys), 0)
	for _, k := range keys {
		b.Add(k, nil)
	}
	b.Sort()
	slices.SortFunc(keys, bytes.Compare)
	for i, want := range keys {
		if got := b.run.key(i); !bytes.Equal(got, want) {
			t.Fatalf("key %d = %x, want %x", i, got, want)
		}
	}
}

// batchOf packs keys[i]→vals[i] into a batch, in the given order.
func batchOf(keys, vals [][]byte) *Batch {
	b := NewBatch(len(keys), 0)
	for i := range keys {
		b.Add(keys[i], vals[i])
	}
	return b
}

// TestQuickAgainstMap runs random Put/Delete/Get/scan sequences with
// random flush/compact points against a reference map.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(Options{FlushBytes: 512, CompactAt: 3})
		ref := make(map[string]string)
		for i := 0; i < int(n%1024); i++ {
			k := fmt.Sprintf("key%03d", rng.Intn(200))
			switch rng.Intn(4) {
			case 0:
				v := fmt.Sprint(rng.Intn(100))
				s.Put([]byte(k), []byte(v))
				ref[k] = v
			case 1:
				s.Delete([]byte(k))
				delete(ref, k)
			case 2:
				v, ok := s.Get([]byte(k))
				rv, rok := ref[k]
				if ok != rok || (ok && string(v) != rv) {
					return false
				}
			case 3:
				if rng.Intn(10) == 0 {
					s.Flush()
				}
			}
		}
		// Full-scan comparison.
		var want []string
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		s.ScanPrefix([]byte("key"), func(k, v []byte) bool {
			if ref[string(k)] != string(v) {
				got = nil
				return false
			}
			got = append(got, string(k))
			return true
		})
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestScanPrefixAgainstMap checks the merged prefix scan against a
// reference map while tombstones sit in the memtable and in every run,
// across flushes and a compaction: each key's newest version wins, and a
// tombstone hides everything older.
func TestScanPrefixAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New(Options{FlushBytes: 1 << 30, CompactAt: 100}) // flush by hand
	ref := make(map[string]string)
	key := func() string { return fmt.Sprintf("r%d:%02d", rng.Intn(8), rng.Intn(40)) }
	check := func(stage string) {
		t.Helper()
		for r := 0; r <= 8; r++ {
			prefix := fmt.Sprintf("r%d:", r)
			if r == 8 {
				prefix = "" // the whole store
			}
			var want []string
			for k, v := range ref {
				if strings.HasPrefix(k, prefix) {
					want = append(want, k+"="+v)
				}
			}
			sort.Strings(want)
			var got []string
			s.ScanPrefix([]byte(prefix), func(k, v []byte) bool {
				got = append(got, string(k)+"="+string(v))
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s: ScanPrefix(%q) = %v, want %v", stage, prefix, got, want)
			}
		}
		for k := range ref {
			if v, ok := s.Get([]byte(k)); !ok || string(v) != ref[k] {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q", stage, k, v, ok, ref[k])
			}
		}
	}
	for run := 0; run < 5; run++ {
		for i := 0; i < 150; i++ {
			k := key()
			if rng.Intn(3) == 0 {
				s.Delete([]byte(k))
				delete(ref, k)
			} else {
				v := fmt.Sprint(run, "-", i)
				s.Put([]byte(k), []byte(v))
				ref[k] = v
			}
		}
		check(fmt.Sprintf("memtable over %d runs", run))
		s.Flush()
		check(fmt.Sprintf("%d runs", run+1))
	}
	for i, r := range s.runs {
		if !slices.ContainsFunc(r.ents, func(e entry) bool { return e.vlen == tombstone }) {
			t.Fatalf("run %d holds no tombstone", i)
		}
	}
	for i := 0; i < 100; i++ { // tombstones and updates over the runs
		k := key()
		s.Delete([]byte(k))
		delete(ref, k)
	}
	check("memtable tombstones over 5 runs")
	s.compact()
	check("compacted, memtable empty")
}

// TestReadAllocs pins allocation-free reads on a volatile store with a
// memtable over two runs and no row cache: Get, and ScanPrefix's merge
// of memtable cursor and run positions.
func TestReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(Options{FlushBytes: 1 << 30, CompactAt: 100})
	for run := 0; run < 3; run++ {
		for i := 0; i < 200; i++ {
			s.Put([]byte(fmt.Sprintf("r%d:%03d", i%10, i)), []byte(fmt.Sprint(run)))
		}
		if run < 2 {
			s.Flush()
		}
	}
	if _, _, runs, _, _ := s.Stats(); runs != 2 || s.mem.Len() == 0 {
		t.Fatalf("want a memtable over 2 runs, have %d runs, %d memtable keys", runs, s.mem.Len())
	}
	k, prefix := []byte("r3:013"), []byte("r3:")
	n := 0
	visit := func(_, _ []byte) bool { n++; return true }
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Get", func() { s.Get(k) }},
		{"ScanPrefix", func() { s.ScanPrefix(prefix, visit) }},
	} {
		if a := testing.AllocsPerRun(100, c.fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
	if n == 0 {
		t.Fatal("scan visited nothing")
	}
}

// TestReturnedSlicesOutliveFlushAndCompaction pins the package's
// layout invariant: the bytes of a slice Get or ScanPrefix returned
// are never overwritten — not by later puts and deletes into the
// memtable, not by the flush that copies the memtable into a run, not
// by the compaction that packs the runs into one, not by a bulk load —
// and appending to such a slice copies instead of writing into the
// memtable or a run.
func TestReturnedSlicesOutliveFlushAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := New(Options{FlushBytes: 2048, CompactAt: 3})
	ref := map[string]string{}
	type capture struct{ got, want []byte }
	var caps []capture
	grab := func(b []byte) {
		caps = append(caps, capture{b, bytes.Clone(b)})
		// One zero: it fits any spare capacity, and past a memtable
		// value lies its live marker, which a zero turns into a
		// tombstone.
		_ = append(b, 0)
	}
	key := func() []byte { return []byte(fmt.Sprintf("r%d:%03d", rng.Intn(10), rng.Intn(100))) }
	for i := 0; i < 5000; i++ {
		switch k := key(); rng.Intn(10) {
		case 0, 1:
			s.Delete(k)
			delete(ref, string(k))
		case 2:
			if v, ok := s.Get(k); ok {
				grab(v)
			}
		case 3:
			s.ScanPrefix(k[:3], func(k, v []byte) bool {
				grab(k)
				grab(v)
				return rng.Intn(10) != 0
			})
		default:
			v := bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(20))
			s.Put(k, v)
			ref[string(k)] = string(v)
		}
	}
	flushes, compacts, _, _, _ := s.Stats()
	if flushes < 10 || compacts < 3 || len(caps) < 1000 {
		t.Fatalf("weak run: %d flushes, %d compactions, %d captures", flushes, compacts, len(caps))
	}
	n := 0
	s.ScanPrefix(nil, func(k, v []byte) bool {
		if rv, ok := ref[string(k)]; !ok || rv != string(v) {
			t.Fatalf("store holds %s=%x, reference %x (present: %v)", k, v, rv, ok)
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("store holds %d keys, reference %d", n, len(ref))
	}
	if err := s.BulkLoad(batchOf([][]byte{[]byte("a"), []byte("b")}, [][]byte{{1}, {2}})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put(key(), []byte("overwrite"))
	}
	for i, c := range caps {
		if !bytes.Equal(c.got, c.want) {
			t.Fatalf("captured slice %d of %d changed: %q, was %q", i, len(caps), c.got, c.want)
		}
	}
}
