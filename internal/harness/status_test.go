package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/engines/sqlg"
)

// TestStatusCounts: -status must reconstruct the plan from the
// checkpoint header alone and report done/remaining/DNF per engine —
// without executing (or generating) anything.
func TestStatusCounts(t *testing.T) {
	unregister := engines.Register("fail-load-status", func() core.Engine {
		return &failLoadEngine{sqlg.New()}
	})
	defer unregister()

	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Engines = []string{"fail-load-status", "sqlg"}
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.CheckpointPath = filepath.Join(dir, "cp.jsonl")
	exportRun(t, cfg)

	st, err := ReadStatus(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// 2 engines × (micro-i + micro-b + indexed) on one dataset.
	if st.Total != 6 || st.Done != 6 || st.Remaining() != 0 {
		t.Fatalf("complete run: total=%d done=%d remaining=%d, want 6/6/0", st.Total, st.Done, st.Remaining())
	}
	if st.DNF == 0 {
		t.Fatal("fail-load engine produced no DNF cells in the status")
	}
	if len(st.Engines) != 2 {
		t.Fatalf("engines = %d, want 2", len(st.Engines))
	}
	byName := map[string]EngineStatus{}
	for _, es := range st.Engines {
		byName[es.Engine] = es
	}
	if es := byName["fail-load-status"]; es.DNF == 0 || es.Done != es.Total {
		t.Fatalf("failing engine status: %+v", es)
	}
	if es := byName["sqlg"]; es.DNF != 0 || es.Done != es.Total {
		t.Fatalf("healthy engine status: %+v", es)
	}

	// Truncate to a 1-cell prefix: the status must show the remainder.
	raw, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if err := os.WriteFile(cfg.CheckpointPath, bytes.Join(lines[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = ReadStatus(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Remaining() != 5 {
		t.Fatalf("truncated run: done=%d remaining=%d, want 1/5", st.Done, st.Remaining())
	}

	var out bytes.Buffer
	st.Render(&out)
	s := out.String()
	for _, want := range []string{"1/6 cells done", "5 remaining", "fail-load-status", "sqlg", "frozen-clock"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered status missing %q:\n%s", want, s)
		}
	}
}

func TestStatusErrors(t *testing.T) {
	if _, err := ReadStatus(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("missing checkpoint: %v", err)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStatus(empty); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty checkpoint: %v", err)
	}

	// A checkpoint from a different record-format version must be
	// refused, as resume refuses it — not silently miscounted.
	stale := filepath.Join(t.TempDir(), "stale.jsonl")
	header := fmt.Sprintf(`{"version":%d,"engines":["sqlg"],"datasets":["frb-s"],"jobs":2}`+"\n", checkpointVersion+1)
	if err := os.WriteFile(stale, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStatus(stale); err == nil || !strings.Contains(err.Error(), "record format") {
		t.Fatalf("stale-version checkpoint accepted: %v", err)
	}

	// So must a header whose plan length disagrees with this build's.
	drifted := filepath.Join(t.TempDir(), "drifted.jsonl")
	header = fmt.Sprintf(`{"version":%d,"engines":["sqlg"],"datasets":["frb-s"],"jobs":7}`+"\n", checkpointVersion)
	if err := os.WriteFile(drifted, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStatus(drifted); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("plan-drifted checkpoint accepted: %v", err)
	}
}

// TestStatusSharedWithResume: the same reader serves resume and
// status, so a checkpoint readable by one is readable by the other.
func TestStatusSharedWithResume(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.CheckpointPath = filepath.Join(dir, "cp.jsonl")
	exportRun(t, cfg)

	st, err := ReadStatus(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	fp := mustFingerprint(t, cfg)
	if !st.Fingerprint.equal(fp) {
		t.Fatal("status fingerprint diverges from the run's")
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatal("unreachable")
	}
}

// mustFingerprint derives the checkpoint fingerprint for a config the
// way Run does.
func mustFingerprint(t *testing.T, cfg Config) Fingerprint {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.fingerprint(len(planGrid(r.cfg.Engines, r.cfg.Datasets)))
}
