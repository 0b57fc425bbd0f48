package harness

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mmapfile"
)

// exportRunProgress is exportRun plus the raw progress log, for tests
// that assert on dataset acquisition lines.
func exportRunProgress(t *testing.T, cfg Config) ([]byte, string) {
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
	return buf.Bytes(), progress.String()
}

// TestDatasetCacheWarmRunByteIdentical is the acceptance contract of
// the artifact cache: with DatasetCacheDir set, a second run of the
// same grid must produce a byte-identical export while acquiring every
// dataset from the warm cache — no generation at all, opened mapped —
// and both must match an uncached run exactly.
func TestDatasetCacheWarmRunByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.Workers = 2

	uncached, _ := exportRunProgress(t, cfg)

	cfg.DatasetCacheDir = t.TempDir()
	cold, coldLog := exportRunProgress(t, cfg)
	if !strings.Contains(coldLog, "generated") || !strings.Contains(coldLog, "snapshot cached") {
		t.Fatalf("cold run did not generate+cache:\n%s", coldLog)
	}
	if !bytes.Equal(uncached, cold) {
		t.Fatal("cold cached run diverges from uncached run")
	}

	warm, warmLog := exportRunProgress(t, cfg)
	if strings.Contains(warmLog, "generated") {
		t.Fatalf("warm run regenerated a dataset:\n%s", warmLog)
	}
	if !strings.Contains(warmLog, "warm cache hit") {
		t.Fatalf("warm run did not report a cache hit:\n%s", warmLog)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm run export diverges from cold run")
	}

	// The warm leg is the mapped open wherever the platform can map.
	arts, err := filepath.Glob(filepath.Join(cfg.DatasetCacheDir, "*.gsnp"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("artifacts = %v, %v", arts, err)
	}
	f, err := mmapfile.Open(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mapped() != strings.Contains(warmLog, "mapped=true") {
		t.Fatalf("platform maps: %v, but the warm run logged:\n%s", f.Mapped(), warmLog)
	}
}
