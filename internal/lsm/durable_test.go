package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/lsm/fsim"
	"repro/internal/lsm/wal"
)

// fixedNow freezes the WAL group-commit window and the recovery clock
// so the crash matrix's filesystem op counts are deterministic.
func fixedNow() time.Time { return time.Unix(1000, 0) }

func matrixWALOpts() wal.Options {
	return wal.Options{
		SegmentBytes:      2048,
		GroupCommitOps:    4,
		GroupCommitWindow: time.Hour,
		Now:               fixedNow,
	}
}

func matrixStoreOpts() Options {
	return Options{FlushBytes: 400, CompactAt: 3, CachePrefixLen: 2}
}

func matrixOpen(fs fsim.FS) (*Store, *RecoveryStats, error) {
	return Open("w", OpenOptions{
		Store: matrixStoreOpts(),
		WAL:   matrixWALOpts(),
		FS:    fs,
		Now:   fixedNow,
	})
}

// mop is one store-level operation of the seeded sequence.
type mop struct {
	kind           byte // 'B' bulk, 'p' put, 'd' delete, 'f' flush, 't' tx batch
	key, val       []byte
	pairsK, pairsV [][]byte
	batch          []mop
}

func genValue(rng *rand.Rand) []byte {
	v := make([]byte, 5+rng.Intn(16))
	for i := range v {
		v[i] = byte('A' + rng.Intn(26))
	}
	return v
}

func genKey(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf("k%02d", rng.Intn(28)))
}

// genMatrixOps builds a seeded sequence: a bulk load, then a mix of
// puts, deletes, explicit flushes (every CompactAt-th run compacts),
// further bulk loads, and multi-record transactions.
func genMatrixOps(seed int64, n int) []mop {
	rng := rand.New(rand.NewSource(seed))
	bulk := func() mop {
		var ks, vs [][]byte
		for i := 0; i < 12; i++ {
			ks = append(ks, []byte(fmt.Sprintf("b%02d", i)))
			vs = append(vs, genValue(rng))
		}
		return mop{kind: 'B', pairsK: ks, pairsV: vs}
	}
	ops := []mop{bulk()}
	for len(ops) < n {
		switch r := rng.Intn(100); {
		case r < 50:
			ops = append(ops, mop{kind: 'p', key: genKey(rng), val: genValue(rng)})
		case r < 70:
			ops = append(ops, mop{kind: 'd', key: genKey(rng)})
		case r < 85:
			ops = append(ops, mop{kind: 'f'})
		case r < 88:
			ops = append(ops, bulk())
		default:
			var batch []mop
			for i := 0; i < 2+rng.Intn(3); i++ {
				if rng.Intn(4) == 0 {
					batch = append(batch, mop{kind: 'd', key: genKey(rng)})
				} else {
					batch = append(batch, mop{kind: 'p', key: genKey(rng), val: genValue(rng)})
				}
			}
			ops = append(ops, mop{kind: 't', batch: batch})
		}
	}
	return ops
}

func applyMop(s *Store, op mop) {
	switch op.kind {
	case 'B':
		_ = s.BulkLoad(batchOf(op.pairsK, op.pairsV))
	case 'p':
		s.Put(op.key, op.val)
	case 'd':
		s.Delete(op.key)
	case 'f':
		s.Flush()
	case 't':
		s.Tx(func() {
			for _, sub := range op.batch {
				applyMop(s, sub)
			}
		})
	}
}

// runOps applies ops until the store poisons itself (crash), returning
// the WAL frame count after each completed op — the unit boundaries
// recovery may legally stop at.
func runOps(s *Store, ops []mop) []int64 {
	var ends []int64
	for _, op := range ops {
		applyMop(s, op)
		if s.Err() != nil {
			break
		}
		lsn, _, _ := s.WALStats()
		ends = append(ends, lsn)
	}
	return ends
}

// opBoundary returns the largest op count whose cumulative frame count
// equals records, or -1 if records is not a unit boundary.
func opBoundary(ends []int64, records int64) int {
	best := -1
	if records == 0 {
		best = 0
	}
	for i, e := range ends {
		if e == records {
			best = i + 1
		}
	}
	return best
}

type pair struct{ k, v []byte }

func dumpStore(s *Store) []pair {
	var out []pair
	s.ScanPrefix(nil, func(k, v []byte) bool {
		out = append(out, pair{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	return out
}

// diffStores compares logical contents and run structure; empty means
// equivalent.
func diffStores(got, want *Store) string {
	gf, gc, gr, _, _ := got.Stats()
	wf, wc, wr, _, _ := want.Stats()
	if gf != wf || gc != wc || gr != wr {
		return fmt.Sprintf("structure: flushes/compacts/runs = %d/%d/%d, want %d/%d/%d", gf, gc, gr, wf, wc, wr)
	}
	if got.Bytes() != want.Bytes() {
		return fmt.Sprintf("Bytes() = %d, want %d", got.Bytes(), want.Bytes())
	}
	gd, wd := dumpStore(got), dumpStore(want)
	if len(gd) != len(wd) {
		return fmt.Sprintf("%d live keys, want %d", len(gd), len(wd))
	}
	for i := range gd {
		if !bytes.Equal(gd[i].k, wd[i].k) || !bytes.Equal(gd[i].v, wd[i].v) {
			return fmt.Sprintf("pair %d: %q=%q, want %q=%q", i, gd[i].k, gd[i].v, wd[i].k, wd[i].v)
		}
	}
	return ""
}

// TestCrashMatrix is the durability acceptance test: a seeded op
// sequence runs against a fault-injected filesystem that crashes at
// every mutating-op boundary (with and without torn writes; renames
// not yet fsynced are always dropped); after each crash the store is
// reopened and must be equivalent to a reference store that applied
// exactly some acknowledged prefix of the sequence — never losing a
// durably-acknowledged write, never resurrecting a delete, never
// failing on a torn tail. The reference is volatile, so equivalence
// also proves a durable store holds the same bytes as a volatile one.
func TestCrashMatrix(t *testing.T) {
	ops := genMatrixOps(7, 60)

	// Dry run bounds the matrix.
	dry := fsim.NewMem(fsim.Faults{})
	s, _, err := matrixOpen(dry)
	if err != nil {
		t.Fatal(err)
	}
	runOps(s, ops)
	if s.Err() != nil {
		t.Fatalf("dry run errored: %v", s.Err())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total := dry.Ops()
	if total < 100 {
		t.Fatalf("dry run produced only %d fs ops; sequence too small to be interesting", total)
	}

	// Reference stores per prefix length are rebuilt on demand.
	refs := make(map[int]*Store)
	reference := func(j int) *Store {
		if ref, ok := refs[j]; ok {
			return ref
		}
		ref := New(matrixStoreOpts())
		runOps(ref, ops[:j])
		refs[j] = ref
		return ref
	}

	for _, tearWrites := range []bool{false, true} {
		for n := 1; n <= total; n++ {
			m := fsim.NewMem(fsim.Faults{
				CrashAtOp:   n,
				TearWrites:  tearWrites,
				DropRenames: true,
				Seed:        int64(n),
			})
			var ends []int64
			var durableAt, lsnAtCrash int64
			s, _, err := matrixOpen(m)
			if err == nil {
				ends = runOps(s, ops)
				if s.Err() == nil {
					_ = s.Close() // the dry run's last fs op may be Close's sync
				}
				lsnAtCrash, durableAt, _ = s.WALStats()
			}
			if !m.Crashed() {
				t.Fatalf("tear=%v n=%d: failpoint never hit", tearWrites, n)
			}

			rec, rst, err := matrixOpen(m.Image())
			if err != nil {
				t.Fatalf("tear=%v n=%d: recovery must not fail: %v", tearWrites, n, err)
			}
			if rst.Records < durableAt {
				t.Fatalf("tear=%v n=%d: lost acknowledged-durable records: recovered %d < durable %d",
					tearWrites, n, rst.Records, durableAt)
			}
			j := opBoundary(ends, rst.Records)
			if j < 0 && rst.Records == lsnAtCrash && len(ends) < len(ops) {
				// The crashed op's WAL unit committed and synced before
				// the crash landed (e.g. on the segment rotation right
				// after it); the store never acknowledged the op, but an
				// un-acked durable write may legally replay.
				j = len(ends) + 1
			}
			if j < 0 {
				t.Fatalf("tear=%v n=%d: recovered LSN %d is not an op boundary (ends %v)",
					tearWrites, n, rst.Records, ends)
			}
			if diff := diffStores(rec, reference(j)); diff != "" {
				t.Fatalf("tear=%v n=%d: recovered store != reference at %d ops: %s",
					tearWrites, n, j, diff)
			}
			if err := rec.Close(); err != nil {
				t.Fatalf("tear=%v n=%d: close recovered: %v", tearWrites, n, err)
			}
		}
	}
}

// TestReopenIdempotent recovers the same crash image twice: the second
// open must replay identical state and repair nothing further.
func TestReopenIdempotent(t *testing.T) {
	ops := genMatrixOps(11, 40)
	m := fsim.NewMem(fsim.Faults{CrashAtOp: 70, TearWrites: true, DropRenames: true, Seed: 3})
	if s, _, err := matrixOpen(m); err == nil {
		runOps(s, ops)
	}
	img := m.Image()

	rec1, rst1, err := matrixOpen(img)
	if err != nil {
		t.Fatal(err)
	}
	dump1 := dumpStore(rec1)
	if err := rec1.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, rst2, err := matrixOpen(img)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if rst2.Records != rst1.Records {
		t.Fatalf("second replay: %d records, first %d", rst2.Records, rst1.Records)
	}
	if rst2.BytesTruncated != 0 {
		t.Fatalf("second replay repaired again: %+v", rst2.ReplayStats)
	}
	dump2 := dumpStore(rec2)
	if len(dump1) != len(dump2) {
		t.Fatalf("dumps differ: %d vs %d keys", len(dump1), len(dump2))
	}
	for i := range dump1 {
		if !bytes.Equal(dump1[i].k, dump2[i].k) || !bytes.Equal(dump1[i].v, dump2[i].v) {
			t.Fatalf("dump mismatch at %d", i)
		}
	}
}

// TestRecoveryCounters checks the counters the ISSUE names: records
// replayed, bytes truncated, and wall time from the injected clock.
func TestRecoveryCounters(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	s, _, err := Open("w", OpenOptions{WAL: matrixWALOpts(), FS: m, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("a"), bytes.Repeat([]byte("A"), 64))
	s.Put([]byte("b"), []byte("small"))
	s.Delete([]byte("a"))
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append garbage to the newest segment.
	f, err := m.Append("w/wal-000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	var tick int64
	clock := func() time.Time {
		tick++
		return time.Unix(0, tick*int64(time.Millisecond))
	}
	rec, rst, err := Open("w", OpenOptions{WAL: matrixWALOpts(), FS: m, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rst.Records != 4 || rst.Puts != 2 || rst.Deletes != 1 || rst.FlushMarks != 1 {
		t.Fatalf("replay counters = %+v", rst.ReplayStats)
	}
	if rst.BytesTruncated != 5 {
		t.Fatalf("BytesTruncated = %d, want 5", rst.BytesTruncated)
	}
	if rst.WallNS != int64(time.Millisecond) {
		t.Fatalf("WallNS = %d, want %d (injected clock)", rst.WallNS, int64(time.Millisecond))
	}
	if v, ok := rec.Get([]byte("b")); !ok || string(v) != "small" {
		t.Fatalf("recovered b = %q, %v", v, ok)
	}
	if _, ok := rec.Get([]byte("a")); ok {
		t.Fatal("delete of a was resurrected")
	}
}

// TestFailedFsyncPoisonsStore: the Nth-fsync failpoint must stop the
// store from acknowledging writes, and recovery must surface only the
// durable prefix.
func TestFailedFsyncPoisonsStore(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{FailSyncN: 1})
	o := matrixWALOpts()
	o.GroupCommitOps = 2
	s, _, err := Open("w", OpenOptions{WAL: o, FS: m, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("a"), []byte("1"))
	if s.Err() != nil {
		t.Fatalf("first put errored early: %v", s.Err())
	}
	s.Put([]byte("b"), []byte("2")) // triggers the failing group commit
	if s.Err() == nil {
		t.Fatal("failed fsync did not poison the store")
	}
	s.Put([]byte("c"), []byte("3")) // must be refused
	if _, ok := s.Get([]byte("c")); ok {
		t.Fatal("write accepted after poisoning")
	}
	if _, durable, _ := s.WALStats(); durable != 0 {
		t.Fatalf("durable = %d after failed fsync, want 0", durable)
	}

	rec, rst, err := Open("w", OpenOptions{WAL: o, FS: m.Image(), Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rst.Records != 0 {
		t.Fatalf("recovered %d records, want 0 (nothing was durable)", rst.Records)
	}
}

// TestDurableBasicsOnRealFS exercises the OS filesystem end to end:
// write, close, reopen, verify — and the directory holds nothing but
// log segments.
func TestDurableBasicsOnRealFS(t *testing.T) {
	dir := t.TempDir()
	o := OpenOptions{}
	s, rst, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Records != 0 {
		t.Fatalf("fresh dir replayed %d records", rst.Records)
	}
	big := bytes.Repeat([]byte("z"), 100)
	s.Put([]byte("big"), big)
	s.Put([]byte("small"), []byte("v"))
	s.Delete([]byte("small"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rec, rst, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rst.Records != 3 {
		t.Fatalf("replayed %d records, want 3", rst.Records)
	}
	if v, ok := rec.Get([]byte("big")); !ok || !bytes.Equal(v, big) {
		t.Fatalf("big value lost: %d bytes, ok=%v", len(v), ok)
	}
	if _, ok := rec.Get([]byte("small")); ok {
		t.Fatal("deleted key resurrected")
	}
	names, err := fsim.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if ok, _ := filepath.Match("wal-*.seg", n); !ok {
			t.Fatalf("store directory holds %q besides its segments (%v)", n, names)
		}
	}
}
