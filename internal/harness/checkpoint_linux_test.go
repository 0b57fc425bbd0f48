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
// failure is injected through the CrashAfterCells exit hook: after the
// first streamed cell it closes the checkpoint's descriptor (found via
// /proc/self/fd) by duplicating a read-only /dev/null over it, so the
// next write fails with EBADF and the descriptor number cannot be
// reused by another open in the meantime.
func TestCheckpointWriteFailureStopsGrid(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Datasets = []string{"frb-s"}
			cfg.BatchSize = 2
			cfg.FrozenClock = true
			cfg.Workers = workers
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "cp.jsonl")
			cfg.CrashAfterCells = 1
			var progress bytes.Buffer
			cfg.Progress = &progress

			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The hook may run on a worker goroutine: report, never Fatal.
			r.exit = func(int) {
				if err := closeCheckpointFD(cfg.CheckpointPath); err != nil {
					t.Error(err)
				}
			}
			if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "harness: checkpoint:") {
				t.Fatalf("Run after a failed checkpoint write returned %v, want the checkpoint error", err)
			}
			total := len(planGrid(r.cfg.Engines, r.cfg.Datasets))
			if n := executedCells(progress.String()); n >= total {
				t.Fatalf("grid executed %d of %d cells after the checkpoint broke; it must stop", n, total)
			}
		})
	}
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
