package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportRun executes a full run under the given config and returns the
// ExportJSON bytes plus the number of cells actually executed (counted
// from the progress stream).
func exportRun(t *testing.T, cfg Config) ([]byte, int) {
	t.Helper()
	var progress bytes.Buffer
	cfg.Progress = &progress
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportJSON(res, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), executedCells(progress.String())
}

// cellStarted reports whether a progress line announces an executed
// grid cell (restored cells emit none).
func cellStarted(line string) bool {
	for _, kind := range []string{"micro-i ", "micro-b ", "indexed ", "complex "} {
		if strings.HasPrefix(line, kind) {
			return true
		}
	}
	return false
}

// executedCells counts the grid cells a progress log shows executed.
func executedCells(progress string) int {
	n := 0
	for _, line := range strings.Split(progress, "\n") {
		if cellStarted(line) {
			n++
		}
	}
	return n
}

// cutCheckpoint writes to dst the header and first keep records of the
// checkpoint at src, plus half of the next record: the exact footprint
// of a crash while that record was being streamed.
func cutCheckpoint(t *testing.T, src, dst string, keep int) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < keep+3 { // header + keep records + one to tear + the empty tail
		t.Fatalf("checkpoint too small to cut after %d records: %d lines", keep, len(lines))
	}
	torn := lines[1+keep]
	cut := append(bytes.Join(lines[:1+keep], nil), torn[:len(torn)/2]...)
	if err := os.WriteFile(dst, cut, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeByteIdentical is the acceptance contract of the
// streaming checkpoint: a run interrupted after N cells (a checkpoint
// cut mid-record, the exact footprint of a crash) and resumed
// re-executes only the missing cells, and its ExportJSON is
// byte-identical to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.BatchSize = 2
	cfg.FrozenClock = true

	fresh := filepath.Join(dir, "fresh.jsonl")
	cfg.CheckpointPath = fresh
	want, freshCells := exportRun(t, cfg)
	if freshCells == 0 {
		t.Fatal("fresh run executed no cells")
	}

	const keep = 4
	cfg.CheckpointPath = filepath.Join(dir, "interrupted.jsonl")
	cutCheckpoint(t, fresh, cfg.CheckpointPath, keep)
	cfg.Resume = true
	resumed, resumedCells := exportRun(t, cfg)

	if !bytes.Equal(want, resumed) {
		t.Fatalf("resumed export diverges from fresh run:\nfresh   %d bytes\nresumed %d bytes", len(want), len(resumed))
	}
	if want := freshCells - keep; resumedCells != want {
		t.Fatalf("resumed run executed %d cells, want %d (only the missing ones)", resumedCells, want)
	}

	// After the resumed run, the checkpoint must be complete again: a
	// second resume restores everything and executes nothing.
	_, again := exportRun(t, cfg)
	if again != 0 {
		t.Fatalf("second resume re-executed %d cells, want 0", again)
	}
}

// TestCheckpointFingerprintMismatch: a checkpoint written under a
// different configuration must be rejected, not silently replayed.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.CheckpointPath = filepath.Join(dir, "cp.jsonl")
	exportRun(t, cfg)

	cfg.Resume = true
	for name, perturb := range map[string]func(*Config){
		"seed": func(c *Config) { c.Seed++ },
		// Above one, batch cells measure parallel wall time: a resume
		// must not mix them with sequential ones.
		"cell-workers": func(c *Config) { c.CellWorkers = 4 },
	} {
		other := cfg
		perturb(&other)
		r, err := NewRunner(other)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "incompatible") {
			t.Fatalf("checkpoint accepted under another %s: %v", name, err)
		}
	}

	// A checkpoint in the previous record format (v4 cells ran
	// parameters drawn with replacement) is refused by version, even
	// when every field of its header matches this run's.
	cfg.CheckpointPath = filepath.Join(dir, "v4.jsonl")
	v4 := `{"version":4,"engines":["neo-1.9","sqlg"],"datasets":["frb-s"],"scale":0.001,"seed":7,"batch_size":2,"timeout_ns":3000000000,"frozen_clock":true,"jobs":6}` + "\n"
	if err := os.WriteFile(cfg.CheckpointPath, []byte(v4), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "record format v4; this build reads v5") {
		t.Fatalf("v4 checkpoint not refused by version: %v", err)
	}

	// A missing checkpoint with Resume set starts fresh instead.
	cfg.CheckpointPath = filepath.Join(dir, "absent.jsonl")
	if _, cells := exportRun(t, cfg); cells == 0 {
		t.Fatal("resume from missing checkpoint executed nothing")
	}
}

func TestResumeRequiresCheckpointPath(t *testing.T) {
	cfg := tinyConfig()
	cfg.Resume = true
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("Resume without CheckpointPath accepted")
	}
}

// TestCrashBetweenMicroHalvesResume pins the sub-cell checkpoint
// granularity: the interactive (micro-i) and batch (micro-b) halves of
// a micro cell are separate grid cells, so a crash landing exactly
// between them loses only the batch half. The resumed run must restore
// micro-i from the checkpoint, re-execute micro-b (and everything
// after), and export byte-identically to an uninterrupted run.
func TestCrashBetweenMicroHalvesResume(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Engines = []string{"sqlg"}
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.Workers = 1 // records stream in plan order: micro-i first

	// Plan for one engine on one dataset: micro-i, micro-b, indexed.
	fresh := filepath.Join(dir, "fresh.jsonl")
	cfg.CheckpointPath = fresh
	want, freshCells := exportRun(t, cfg)
	if freshCells != 3 {
		t.Fatalf("plan executed %d cells, want 3 (micro-i, micro-b, indexed)", freshCells)
	}

	// A crash after the first record: micro-i is checkpointed, micro-b
	// is torn — the crash falls on the half boundary.
	cfg.CheckpointPath = filepath.Join(dir, "crash.jsonl")
	cutCheckpoint(t, fresh, cfg.CheckpointPath, 1)
	cfg.Resume = true
	resumed, resumedCells := exportRun(t, cfg)
	if resumedCells != freshCells-1 {
		t.Fatalf("resume executed %d cells, want %d (micro-i restored, micro-b + indexed re-run)", resumedCells, freshCells-1)
	}
	if !bytes.Equal(want, resumed) {
		t.Fatalf("half-boundary resume diverges from uninterrupted run:\nfresh   %d bytes\nresumed %d bytes", len(want), len(resumed))
	}
}

// TestCellWorkersDeterministic: parallel batch iterations must not
// change any count or failure (under the frozen clock, where Elapsed is
// zero, the exports are then byte-identical but for the cell_workers
// key of the run's identity, which records the setting). titan-1.0 is included
// deliberately (its read path goes through the lsm row cache), as are
// arango (read-path REST accounting) and sparksee (stateful retention
// model, which vetoes fan-out via core.ConcurrentReader) — all must
// stay race-free and deterministic under the concurrent reads
// CellWorkers introduces (verified by -race).
func TestCellWorkersDeterministic(t *testing.T) {
	run := func(cellWorkers int) []byte {
		cfg := tinyConfig()
		cfg.Engines = []string{"neo-1.9", "sqlg", "titan-1.0", "arango", "sparksee"}
		cfg.Datasets = []string{"frb-s"}
		cfg.BatchSize = 4
		cfg.CellWorkers = cellWorkers
		cfg.FrozenClock = true
		out, _ := exportRun(t, cfg)
		return out
	}
	seq := run(1)
	par := run(8)
	key := func(n int) []byte { return fmt.Appendf(nil, "\n  \"cell_workers\": %d,\n", n) }
	if !bytes.Contains(par, key(8)) {
		t.Fatal("the cell-parallel export does not record its cell workers")
	}
	if !bytes.Equal(seq, bytes.Replace(par, key(8), key(1), 1)) {
		t.Fatal("cell-parallel export diverges from sequential")
	}
}

// TestCheckpointHeaderUnchanged: a v5 header written before the
// Fingerprint embedded the Grid decodes into the same fingerprint this
// build derives for that configuration, and this build writes it back
// byte for byte, so such checkpoints still resume.
func TestCheckpointHeaderUnchanged(t *testing.T) {
	const header = `{"version":5,"engines":["neo-1.9","sqlg"],"datasets":["frb-s","ldbc"],"scale":0.001,"seed":7,"batch_size":3,"timeout_ns":3000000000,"frozen_clock":true,"cell_workers":2,"jobs":14}`
	cfg := tinyConfig()
	cfg.FrozenClock = true
	cfg.CellWorkers = 2
	want := mustFingerprint(t, cfg)
	var got Fingerprint
	if err := json.Unmarshal([]byte(header), &got); err != nil {
		t.Fatal(err)
	}
	if !got.equal(want) {
		t.Fatalf("header decodes to %+v, want %+v", got, want)
	}
	if b, err := json.Marshal(want); err != nil || string(b) != header {
		t.Fatalf("header written as %s (%v), want %s", b, err, header)
	}
}
