package lsm

// Durable-mode benchmarks: sustained write throughput with and
// without group commit, and recovery replay speed. The grouped/
// sync-each pair quantifies the batching effect the WAL exists for;
// TestRecordLSMBenchmarks renders all three into BENCH_lsm.json for
// CI (set BENCH_JSON to the output path) and ratchets against the
// committed floors.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/lsm/wal"
)

func benchWALOpts(groupOps int) wal.Options {
	return wal.Options{
		SegmentBytes:      4 << 20,
		GroupCommitOps:    groupOps,
		GroupCommitWindow: 2 * time.Millisecond,
	}
}

func benchDurablePut(b *testing.B, groupOps int) {
	dir := b.TempDir()
	s, _, err := Open(dir, OpenOptions{
		Store: Options{FlushBytes: 4 << 20, CompactAt: 4},
		WAL:   benchWALOpts(groupOps),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i))
		s.Put(key, val)
		if s.Err() != nil {
			b.Fatal(s.Err())
		}
	}
}

func BenchmarkDurablePutGrouped(b *testing.B)  { benchDurablePut(b, 64) }
func BenchmarkDurablePutSyncEach(b *testing.B) { benchDurablePut(b, 1) }

// benchRecoveryRecords sizes the replayed log.
const benchRecoveryRecords = 20000

func buildRecoveryLog(b *testing.B, dir string) {
	s, _, err := Open(dir, OpenOptions{
		Store: Options{FlushBytes: 64 << 10, CompactAt: 4},
		WAL:   benchWALOpts(64),
	})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < benchRecoveryRecords; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
	if s.Err() != nil {
		b.Fatal(s.Err())
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	buildRecoveryLog(b, dir)
	opts := OpenOptions{
		Store: Options{FlushBytes: 64 << 10, CompactAt: 4},
		WAL:   benchWALOpts(64),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rst, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rst.Puts < benchRecoveryRecords {
			b.Fatalf("replayed only %d puts", rst.Puts)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// lsmBenchRecord is one benchmark's entry in BENCH_lsm.json.
type lsmBenchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// TestRecordLSMBenchmarks runs the durable-write pair and the
// recovery benchmark through testing.Benchmark and writes throughput,
// the group-commit speedup, and recovery replay rate to the file
// named by BENCH_JSON (skipped when unset). The committed
// BENCH_lsm.json ratchets the trajectory: falling below half a
// committed floor fails even on a fast machine.
func TestRecordLSMBenchmarks(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("BENCH_JSON not set; skipping benchmark recording")
	}
	run := func(name string, fn func(*testing.B)) lsmBenchRecord {
		r := testing.Benchmark(fn)
		t.Logf("%s: %v", name, r)
		return lsmBenchRecord{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}
	grouped := run("durable-put/group-commit-64", BenchmarkDurablePutGrouped)
	syncEach := run("durable-put/sync-each-op", BenchmarkDurablePutSyncEach)
	recovery := run("recovery/20k-records", BenchmarkRecovery)

	throughput := 1e9 / grouped.NsPerOp
	speedup := syncEach.NsPerOp / grouped.NsPerOp
	recRate := float64(benchRecoveryRecords) * 1e9 / recovery.NsPerOp
	doc := struct {
		Benchmarks            []lsmBenchRecord `json:"benchmarks"`
		WriteOpsPerSec        float64          `json:"write_throughput_ops_per_sec"`
		GroupCommitSpeedup    float64          `json:"group_commit_speedup"`
		RecoveryRecordsPerSec float64          `json:"recovery_records_per_sec"`
	}{
		Benchmarks:            []lsmBenchRecord{grouped, syncEach, recovery},
		WriteOpsPerSec:        throughput,
		GroupCommitSpeedup:    speedup,
		RecoveryRecordsPerSec: recRate,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%.0f writes/s, group-commit %.1fx, recovery %.0f records/s)",
		out, throughput, speedup, recRate)
	if speedup < 1.5 {
		t.Errorf("group commit is only %.2fx faster than per-op fsync, want >= 1.5x", speedup)
	}

	if floors, ok := committedLSMFloor(t); ok {
		check := func(name string, got, floor float64) {
			if floor > 0 && got < floor/2 {
				t.Errorf("%s = %.1f is less than half the committed floor %.1f (BENCH_lsm.json); investigate or re-baseline", name, got, floor)
			}
		}
		check("write_throughput_ops_per_sec", throughput, floors.WriteOpsPerSec)
		check("group_commit_speedup", speedup, floors.GroupCommitSpeedup)
		check("recovery_records_per_sec", recRate, floors.RecoveryRecordsPerSec)
	}
}

type lsmFloors struct {
	WriteOpsPerSec        float64 `json:"write_throughput_ops_per_sec"`
	GroupCommitSpeedup    float64 `json:"group_commit_speedup"`
	RecoveryRecordsPerSec float64 `json:"recovery_records_per_sec"`
}

// committedLSMFloor reads the floors from the repo's committed
// BENCH_lsm.json.
func committedLSMFloor(t *testing.T) (lsmFloors, bool) {
	raw, err := os.ReadFile("../../BENCH_lsm.json")
	if err != nil {
		t.Logf("no committed BENCH_lsm.json floor: %v", err)
		return lsmFloors{}, false
	}
	var doc lsmFloors
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("committed BENCH_lsm.json is unreadable: %v", err)
	}
	return doc, doc.WriteOpsPerSec > 0
}
