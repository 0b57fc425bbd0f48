package wal

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/lsm/fsim"
)

func collect(t testing.TB, fsys fsim.FS, dir string, o Options) (*Writer, *ReplayStats, []Op) {
	t.Helper()
	var ops []Op
	w, st, err := Replay(fsys, dir, o, func(op Op) error {
		ops = append(ops, op)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return w, st, ops
}

// fresh opens a writer on an empty directory: Replay of nothing.
func fresh(t testing.TB, fsys fsim.FS, dir string, o Options) *Writer {
	t.Helper()
	w, _, ops := collect(t, fsys, dir, o)
	if len(ops) != 0 {
		t.Fatalf("fresh directory replayed %d ops", len(ops))
	}
	return w
}

// fakeClock is an injectable clock for the group-commit window.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestRoundTrip(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	w := fresh(t, m, "wal", Options{})
	if err := w.AppendPut([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDelete([]byte("k2")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFlushMark(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, st, ops := collect(t, m, "wal", Options{})
	defer w2.Close()
	if st.Records != 3 || st.Puts != 1 || st.Deletes != 1 || st.FlushMarks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesTruncated != 0 {
		t.Fatalf("clean log truncated: %+v", st)
	}
	want := []Op{
		{Kind: OpPut, Key: []byte("k1"), Val: []byte("v1")},
		{Kind: OpDelete, Key: []byte("k2")},
		{Kind: OpFlushMark},
	}
	if len(ops) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(ops), len(want))
	}
	for i, op := range ops {
		if op.Kind != want[i].Kind || !bytes.Equal(op.Key, want[i].Key) || !bytes.Equal(op.Val, want[i].Val) {
			t.Fatalf("op %d = %+v, want %+v", i, op, want[i])
		}
	}
	if w2.LSN() != 3 || w2.DurableLSN() != 3 {
		t.Fatalf("resumed lsn = %d/%d, want 3/3", w2.LSN(), w2.DurableLSN())
	}
}

func TestTornTailTruncatedNotFatal(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	w := fresh(t, m, "wal", Options{})
	for i := 0; i < 5; i++ {
		if err := w.AppendPut([]byte{byte('a' + i)}, []byte("val")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last 3 bytes of the segment, then append
	// garbage — a partial frame followed by noise.
	seg := "wal/wal-000001.seg"
	data, err := m.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := m.Create(seg)
	if _, err := f.Write(data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	w2, st, ops := collect(t, m, "wal", Options{})
	if st.Records != 4 || len(ops) != 4 {
		t.Fatalf("replayed %d records (%d ops), want 4", st.Records, len(ops))
	}
	if st.BytesTruncated == 0 {
		t.Fatalf("no truncation recorded: %+v", st)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Idempotent: a second replay finds a clean log, repairs nothing.
	w3, st2, ops2 := collect(t, m, "wal", Options{})
	defer w3.Close()
	if st2.Records != 4 || len(ops2) != 4 || st2.BytesTruncated != 0 {
		t.Fatalf("second replay not idempotent: %+v", st2)
	}
}

func TestGroupCommitBatchesAndWindow(t *testing.T) {
	clk := &fakeClock{}
	m := fsim.NewMem(fsim.Faults{})
	o := Options{GroupCommitOps: 4, GroupCommitWindow: 2 * time.Millisecond, Now: clk.now}
	w := fresh(t, m, "wal", o)
	for i := 0; i < 3; i++ {
		if err := w.AppendPut([]byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if w.DurableLSN() != 0 {
		t.Fatalf("durable = %d before batch boundary", w.DurableLSN())
	}
	if err := w.AppendPut([]byte{9}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() != 4 || w.Syncs() != 1 {
		t.Fatalf("durable=%d syncs=%d after 4th record, want 4/1", w.DurableLSN(), w.Syncs())
	}

	// Window: one record, then the clock jumps past the window; the
	// next append must force the sync.
	if err := w.AppendPut([]byte{10}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() != 4 {
		t.Fatalf("durable advanced without sync trigger")
	}
	clk.advance(5 * time.Millisecond)
	if err := w.AppendPut([]byte{11}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() != 6 || w.Syncs() != 2 {
		t.Fatalf("window sync missing: durable=%d syncs=%d", w.DurableLSN(), w.Syncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTxAtomicity(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	w := fresh(t, m, "wal", Options{})
	// Committed multi-record tx.
	if err := w.BeginTx(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendPut([]byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if w.LSN() != 0 {
		t.Fatalf("tx frames hit the log before commit: lsn=%d", w.LSN())
	}
	if err := w.EndTx(); err != nil {
		t.Fatal(err)
	}
	if w.LSN() != 5 { // TxBegin + 3 puts + TxEnd
		t.Fatalf("lsn = %d after tx, want 5", w.LSN())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log inside the tx blob: cut after the TxBegin frame
	// plus a bit — recovery must discard the whole transaction.
	seg := "wal/wal-000001.seg"
	data, _ := m.ReadFile(seg)
	f, _ := m.Create(seg)
	if _, err := f.Write(data[:len(data)-12]); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	w2, st, ops := collect(t, m, "wal", Options{})
	defer w2.Close()
	if len(ops) != 0 || st.Records != 0 {
		t.Fatalf("torn tx partially replayed: %d ops, %+v", len(ops), st)
	}
	if st.BytesTruncated != int64(len(data)-12) {
		t.Fatalf("BytesTruncated = %d, want %d (whole torn tx)", st.BytesTruncated, len(data)-12)
	}
}

func TestSegmentRotation(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	w := fresh(t, m, "wal", Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := w.AppendPut([]byte(fmt.Sprintf("key-%02d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := m.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	segCount := len(names)
	if segCount < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d: %v", segCount, names)
	}

	w2, st, ops := collect(t, m, "wal", Options{SegmentBytes: 64})
	if st.Segments != segCount || len(ops) != 20 {
		t.Fatalf("replay across segments: %d ops over %d segments (%+v)", len(ops), st.Segments, st)
	}
	for i, op := range ops {
		if want := fmt.Sprintf("key-%02d", i); string(op.Key) != want {
			t.Fatalf("op %d key = %q, want %q", i, op.Key, want)
		}
	}
	// The resumed writer appends into the newest segment.
	if err := w2.AppendPut([]byte("after"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, ops2 := collect(t, m, "wal", Options{SegmentBytes: 64})
	if len(ops2) != 21 || st2.BytesTruncated != 0 {
		t.Fatalf("after resume: %d ops, %+v", len(ops2), st2)
	}
}

func TestTornBulkDiscardedWhole(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	w := fresh(t, m, "wal", Options{})
	if err := w.BeginBulk(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.AppendPut([]byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// No EndBulk: simulate a crash before the bulk commit.
	if err := w.seg.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = w.seg.Close()

	w2, st, ops := collect(t, m, "wal", Options{})
	defer w2.Close()
	if len(ops) != 0 || st.Records != 0 || st.BulkLoads != 0 {
		t.Fatalf("unterminated bulk replayed: %d ops, %+v", len(ops), st)
	}
	if st.BytesTruncated == 0 {
		t.Fatalf("bulk tail not truncated: %+v", st)
	}
}

func TestCompletedBulkReplayed(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	w := fresh(t, m, "wal", Options{})
	if err := w.BeginBulk(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.AppendPut([]byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndBulk(4); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() != w.LSN() {
		t.Fatalf("EndBulk did not sync: %d != %d", w.DurableLSN(), w.LSN())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, st, ops := collect(t, m, "wal", Options{})
	defer w2.Close()
	if st.BulkLoads != 1 || st.BulkPairs != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if len(ops) != 6 || ops[0].Kind != OpBulkBegin || ops[5].Kind != OpBulkEnd {
		t.Fatalf("bulk op stream = %d ops", len(ops))
	}
}

// writeLog writes a small log of every surviving unit kind — bare
// puts and deletes, a flush mark, a multi-record transaction and a bulk
// load — and returns the segment bytes.
func writeLog(t testing.TB, m *fsim.Mem, dir string) []byte {
	t.Helper()
	w := fresh(t, m, dir, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AppendPut([]byte("a"), []byte("1")))
	must(w.AppendDelete([]byte("b")))
	must(w.AppendFlushMark())
	must(w.BeginTx())
	must(w.AppendPut([]byte("c"), []byte{}))
	must(w.AppendPut([]byte("d"), []byte("4")))
	must(w.EndTx())
	must(w.BeginBulk())
	must(w.AppendPut([]byte("e"), []byte("5")))
	must(w.EndBulk(1))
	must(w.Close())
	data, err := m.ReadFile(dir + "/wal-000001.seg")
	must(err)
	return data
}

func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Val, b[i].Val) {
			return false
		}
	}
	return true
}

// TestEmptyValueLogFileIgnored: stores written before the value log was
// removed hold an empty values.vlog beside their segments. It is not
// part of the log, so replay delivers the same ops and repairs nothing.
func TestEmptyValueLogFileIgnored(t *testing.T) {
	m := fsim.NewMem(fsim.Faults{})
	writeLog(t, m, "plain")
	_, want, wantOps := collect(t, m, "plain", Options{})

	writeLog(t, m, "old")
	f, err := m.Create("old/values.vlog")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	w, st, ops := collect(t, m, "old", Options{})
	defer w.Close()
	if st.BytesTruncated != 0 || st.Records != want.Records || !sameOps(ops, wantOps) {
		t.Fatalf("with values.vlog: %+v, %d ops; without: %+v, %d ops", st, len(ops), want, len(wantOps))
	}
	if v := ops[3].Val; v == nil || len(v) != 0 {
		t.Fatalf("empty value replayed as %#v, want non-nil empty", v)
	}
}

// TestRetiredRecordTypesTruncated: a frame of retired type 2 (value-log
// pointer) or 5 (explicit compaction mark) decodes as unknown. Replay
// keeps the valid prefix before it and truncates it and everything
// after, as for any torn tail.
func TestRetiredRecordTypesTruncated(t *testing.T) {
	for _, typ := range []byte{2, 5} {
		m := fsim.NewMem(fsim.Faults{})
		prefix := writeLog(t, m, "w")
		_, _, wantOps := collect(t, m, "w", Options{})
		tail := frameBytes(typ, nil)
		if typ == 2 {
			tail = frameBytes(typ, []byte{1, 'k', 0, 3}) // key "k" at offset 0, length 3
		}
		tail = append(tail, frameBytes(recPut, []byte{1, 'z', '9'})...)
		f, err := m.Append("w/wal-000001.seg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		w, st, ops := collect(t, m, "w", Options{})
		if st.BytesTruncated != int64(len(tail)) || !sameOps(ops, wantOps) {
			t.Fatalf("type %d: truncated %d of %d tail bytes, %d ops (want %d)",
				typ, st.BytesTruncated, len(tail), len(ops), len(wantOps))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if data, _ := m.ReadFile("w/wal-000001.seg"); !bytes.Equal(data, prefix) {
			t.Fatalf("type %d: repaired segment is %d bytes, want the %d-byte prefix", typ, len(data), len(prefix))
		}
	}
}
