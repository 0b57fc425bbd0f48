package wal

import (
	"testing"

	"repro/internal/lsm/fsim"
)

// FuzzReplay feeds arbitrary bytes to Replay as the only segment of a
// log. Replay must not panic or fail on corrupt content, must deliver
// whole units only — its repaired segment holds exactly the frames it
// delivered, and every bulk load it delivers is closed — and a second
// Replay of the repaired directory must deliver the same ops and
// truncate nothing.
//
//	go test -run '^$' -fuzz FuzzReplay -fuzztime 15s ./internal/lsm/wal
func FuzzReplay(f *testing.F) {
	m := fsim.NewMem(fsim.Faults{})
	log := writeLog(f, m, "seed")
	f.Add(log)
	f.Add(log[:len(log)-3]) // torn final frame
	bad := append([]byte(nil), log...)
	bad[len(bad)/2] ^= 0xff // bad CRC mid-log
	f.Add(bad)
	f.Add(frameBytes(recTxBegin, nil))                                                  // unterminated tx
	f.Add(append(frameBytes(recBulkBegin, nil), frameBytes(recPut, []byte{1, 'k'})...)) // unterminated bulk
	f.Add(append(append([]byte(nil), log...), frameBytes(2, []byte{1, 'k', 0, 3})...))  // retired value-log pointer
	f.Add(append(append([]byte(nil), log...), frameBytes(5, nil)...))                   // retired compaction mark

	f.Fuzz(func(t *testing.T, seg []byte) {
		m := fsim.NewMem(fsim.Faults{})
		if err := m.MkdirAll("w"); err != nil {
			t.Fatal(err)
		}
		sf, err := m.Create("w/wal-000001.seg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Write(seg); err != nil {
			t.Fatal(err)
		}
		if err := sf.Sync(); err != nil {
			t.Fatal(err)
		}

		w, st, ops := collect(t, m, "w", Options{})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if st.BytesTruncated > int64(len(seg)) {
			t.Fatalf("truncated %d of %d bytes", st.BytesTruncated, len(seg))
		}
		inBulk := false
		for _, op := range ops {
			switch op.Kind {
			case OpBulkBegin:
				if inBulk {
					t.Fatal("nested bulk load delivered")
				}
				inBulk = true
			case OpBulkEnd:
				if !inBulk {
					t.Fatal("bulk end delivered without a begin")
				}
				inBulk = false
			}
		}
		if inBulk {
			t.Fatal("unterminated bulk load delivered")
		}
		kept, err := m.ReadFile("w/wal-000001.seg")
		if err != nil {
			t.Fatal(err)
		}
		var frames, off int64
		for off < int64(len(kept)) {
			_, _, end, ok := parseFrame(kept, off)
			if !ok {
				t.Fatalf("repaired segment holds a bad frame at %d", off)
			}
			frames, off = frames+1, end
		}
		if frames != st.Records {
			t.Fatalf("repaired segment holds %d frames, replay counted %d", frames, st.Records)
		}

		w2, st2, ops2 := collect(t, m, "w", Options{})
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if st2.BytesTruncated != 0 || st2.Records != st.Records || !sameOps(ops, ops2) {
			t.Fatalf("second replay differs: %+v (%d ops) after %+v (%d ops)", st2, len(ops2), st, len(ops))
		}
	})
}
