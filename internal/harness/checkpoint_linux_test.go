package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestCheckpointWriteFailureStopsGrid: once a checkpoint write fails,
// durability is gone, so Run must stop starting cells and return the
// write error instead of finishing a grid it cannot checkpoint. The
// failure is injected from the Progress stream: when a cell starts
// after at least one record is on disk, checkpointBreaker replaces the
// checkpoint's descriptor (found via /proc/self/fd) by duplicating a
// read-only /dev/null over it, so the next write fails with EBADF and
// the descriptor number cannot be reused by another open meanwhile.
func TestCheckpointWriteFailureStopsGrid(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Datasets = []string{"frb-s"}
			cfg.BatchSize = 2
			cfg.FrozenClock = true
			cfg.Workers = workers
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "cp.jsonl")
			breaker := &checkpointBreaker{t: t, path: cfg.CheckpointPath}
			cfg.Progress = breaker

			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "harness: checkpoint:") {
				t.Fatalf("Run after a failed checkpoint write returned %v, want the checkpoint error", err)
			}
			if !breaker.broken {
				t.Fatal("no cell started after the first record; the checkpoint was never broken")
			}
			total := len(planGrid(r.cfg.Engines, r.cfg.Datasets))
			if n := executedCells(breaker.log.String()); n >= total {
				t.Fatalf("grid executed %d of %d cells after the checkpoint broke; it must stop", n, total)
			}
		})
	}
}

// checkpointBreaker is a Progress writer that breaks the checkpoint at
// path once, on the first cell start after a record is on disk. Run
// serializes Progress writes, so its fields need no lock of their own.
type checkpointBreaker struct {
	t      *testing.T
	path   string
	broken bool
	log    bytes.Buffer
}

func (b *checkpointBreaker) Write(p []byte) (int, error) {
	if !b.broken && cellStarted(string(p)) {
		raw, err := os.ReadFile(b.path)
		if err == nil && bytes.Count(raw, []byte("\n")) >= 2 { // header + a record
			b.broken = true
			// This may run on a worker goroutine: report, never Fatal.
			if err := closeCheckpointFD(b.path); err != nil {
				b.t.Error(err)
			}
		}
	}
	return b.log.Write(p)
}

// closeCheckpointFD replaces this process's descriptor for path with a
// read-only one on /dev/null.
func closeCheckpointFD(path string) error {
	want, err := filepath.EvalSymlinks(path)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return err
	}
	for _, e := range entries {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err != nil || target != want {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			return err
		}
		null, err := syscall.Open(os.DevNull, syscall.O_RDONLY, 0)
		if err != nil {
			return err
		}
		defer syscall.Close(null)
		return syscall.Dup3(null, fd, 0)
	}
	return fmt.Errorf("no open descriptor for %s", path)
}
