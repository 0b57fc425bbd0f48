package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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

// executedCells counts grid cells that were actually executed (restored
// cells emit no per-cell progress line).
func executedCells(progress string) int {
	n := 0
	for _, line := range strings.Split(progress, "\n") {
		if strings.HasPrefix(line, "micro-i ") || strings.HasPrefix(line, "micro-b ") ||
			strings.HasPrefix(line, "indexed ") || strings.HasPrefix(line, "complex ") {
			n++
		}
	}
	return n
}

// TestCheckpointResumeByteIdentical is the acceptance contract of the
// streaming checkpoint: a run interrupted after N cells (simulated by
// truncating the checkpoint mid-record, the exact footprint of a crash)
// and resumed re-executes only the missing cells, and its ExportJSON is
// byte-identical to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.BatchSize = 2
	cfg.FrozenClock = true

	cfg.CheckpointPath = filepath.Join(dir, "fresh.jsonl")
	fresh, freshCells := exportRun(t, cfg)
	if freshCells == 0 {
		t.Fatal("fresh run executed no cells")
	}

	// Second full run on its own checkpoint, which we then truncate to a
	// 4-complete-cell prefix plus a torn half record.
	cfg.CheckpointPath = filepath.Join(dir, "interrupted.jsonl")
	exportRun(t, cfg)
	raw, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	const keep = 4
	if len(lines) < keep+3 { // header + keep cells + one to tear
		t.Fatalf("checkpoint too small to truncate: %d lines", len(lines))
	}
	truncated := bytes.Join(lines[:1+keep], nil)
	torn := lines[1+keep]
	truncated = append(truncated, torn[:len(torn)/2]...)
	if err := os.WriteFile(cfg.CheckpointPath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	resumed, resumedCells := exportRun(t, cfg)

	if !bytes.Equal(fresh, resumed) {
		t.Fatalf("resumed export diverges from fresh run:\nfresh   %d bytes\nresumed %d bytes", len(fresh), len(resumed))
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
	cfg.Seed = cfg.Seed + 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("incompatible checkpoint accepted: %v", err)
	}

	// A checkpoint in the previous record format (v2 still carried the
	// isolation field) is refused by version, before any field of it
	// could be misread as this build's.
	cfg.CheckpointPath = filepath.Join(dir, "v2.jsonl")
	v2 := `{"version":2,"engines":["neo-1.9","sqlg"],"datasets":["frb-s"],"scale":0.001,"seed":8,"batch_size":2,"timeout_ns":3000000000,"isolation":true,"frozen_clock":true,"jobs":6}` + "\n"
	if err := os.WriteFile(cfg.CheckpointPath, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err = NewRunner(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "record format v2; this build reads v3") {
		t.Fatalf("v2 checkpoint not refused by version: %v", err)
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
	cfg.Resume = false
	cfg.CrashAfterCells = 1
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("CrashAfterCells without CheckpointPath accepted")
	}
}

type crashSentinel struct{}

// TestCrashAfterCellsResume exercises the fault-injection path end to
// end in-process: the run "crashes" (via the substituted exit hook)
// after 2 streamed cells, and a resumed run completes with a
// byte-identical export.
func TestCrashAfterCellsResume(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true

	cfg.CheckpointPath = filepath.Join(dir, "fresh.jsonl")
	fresh, _ := exportRun(t, cfg)

	cfg.CheckpointPath = filepath.Join(dir, "crash.jsonl")
	cfg.CrashAfterCells = 2
	cfg.Workers = 1 // the crash panic must unwind the Run goroutine
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.exit = func(int) { panic(crashSentinel{}) }
	func() {
		defer func() {
			if rec := recover(); rec == nil {
				t.Fatal("CrashAfterCells did not crash")
			} else if _, ok := rec.(crashSentinel); !ok {
				panic(rec)
			}
		}()
		r.Run()
	}()

	cfg.CrashAfterCells = 0
	cfg.Resume = true
	resumed, cells := exportRun(t, cfg)
	if !bytes.Equal(fresh, resumed) {
		t.Fatal("post-crash resume diverges from uninterrupted run")
	}
	if cells == 0 {
		t.Fatal("resume after crash executed nothing")
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

	// Plan for one engine on one dataset: micro-i, micro-b, indexed.
	cfg.CheckpointPath = filepath.Join(dir, "fresh.jsonl")
	fresh, freshCells := exportRun(t, cfg)
	if freshCells != 3 {
		t.Fatalf("plan executed %d cells, want 3 (micro-i, micro-b, indexed)", freshCells)
	}

	// Crash after exactly one streamed cell: micro-i is checkpointed,
	// micro-b is not — the crash falls on the half boundary.
	cfg.CheckpointPath = filepath.Join(dir, "crash.jsonl")
	cfg.CrashAfterCells = 1
	cfg.Workers = 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.exit = func(int) { panic(crashSentinel{}) }
	func() {
		defer func() {
			if rec := recover(); rec == nil {
				t.Fatal("CrashAfterCells did not crash")
			} else if _, ok := rec.(crashSentinel); !ok {
				panic(rec)
			}
		}()
		r.Run()
	}()

	cfg.CrashAfterCells = 0
	cfg.Resume = true
	resumed, resumedCells := exportRun(t, cfg)
	if resumedCells != freshCells-1 {
		t.Fatalf("resume executed %d cells, want %d (micro-i restored, micro-b + indexed re-run)", resumedCells, freshCells-1)
	}
	if !bytes.Equal(fresh, resumed) {
		t.Fatalf("half-boundary resume diverges from uninterrupted run:\nfresh   %d bytes\nresumed %d bytes", len(fresh), len(resumed))
	}
}

// TestCellWorkersDeterministic: parallel batch iterations must not
// change any measurement. titan-1.0 is included deliberately (its read
// path goes through the lsm row cache), as are arango (read-path REST
// accounting) and sparksee (stateful retention model, which vetoes
// fan-out via core.ConcurrentReader) — all must stay race-free and
// deterministic under the concurrent reads CellWorkers introduces
// (verified by -race).
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
	if !bytes.Equal(seq, par) {
		t.Fatal("cell-parallel export diverges from sequential")
	}
}

// schedulingOnly lists the Config fields that decide where and when
// cells run, never what they measure: absent from the Fingerprint.
var schedulingOnly = map[string]bool{
	"Workers": true, "CheckpointPath": true, "Resume": true,
	"LSMDir": true, "CrashAfterCells": true,
}

// TestConfigFieldsClassified makes the next Config field declare what
// it is. A field outside Exec and schedulingOnly can change a result,
// so the Fingerprint must carry it: perturbing it has to change the
// fingerprint. A new field that does not fails here until it is added
// to Fingerprint, moved into Exec, or listed above.
func TestConfigFieldsClassified(t *testing.T) {
	base := (&Runner{}).fingerprint(0)
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Exec" && f.Anonymous || schedulingOnly[f.Name] {
			continue
		}
		var cfg Config
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.String:
			v.SetString("x")
		case reflect.Slice:
			v.Set(reflect.ValueOf([]string{"x"}))
		default:
			t.Fatalf("Config.%s: kind %s has no perturbation here; add one", f.Name, v.Kind())
		}
		if (&Runner{cfg: cfg}).fingerprint(0).equal(base) {
			t.Errorf("Config.%s is not in Exec or schedulingOnly, yet changing it leaves the Fingerprint unchanged", f.Name)
		}
	}
	for name := range schedulingOnly {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("schedulingOnly names Config.%s, which does not exist", name)
		}
	}
}
