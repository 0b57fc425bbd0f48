package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// checkpointWriter streams completed cells to the checkpoint file as
// workers finish. Every record is flushed and fsynced before write
// returns, so a crash loses at most the cell being written — and the
// loader tolerates that torn line.
type checkpointWriter struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
	err error // first write error; surfaced after the grid drains
}

// newCheckpointWriter creates (or rewrites) the checkpoint at path:
// header line first, then the recovered cells of the interrupted run in
// index order. Rewriting — rather than appending — scrubs any torn
// trailing line left by the crash, so the file is always a clean prefix
// of records; the rewrite goes through a temp file renamed over the
// original, so a crash *during* the rewrite still leaves the previous
// checkpoint intact rather than a truncated one.
func newCheckpointWriter(path string, fp Fingerprint, recovered map[int]cell) (*checkpointWriter, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("harness: checkpoint: %w", err)
	}
	fail := func(err error) (*checkpointWriter, error) {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("harness: checkpoint: %w", err)
	}
	w := &checkpointWriter{f: f, enc: json.NewEncoder(f)}
	if err := w.enc.Encode(fp); err != nil {
		return fail(err)
	}
	for i := 0; i < fp.Jobs; i++ {
		if c, ok := recovered[i]; ok {
			if err := w.enc.Encode(c); err != nil {
				return fail(err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// The open handle keeps following the file across the rename, so
	// subsequent writes append to the now-published checkpoint.
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	return w, nil
}

// write durably streams one completed cell. Safe for concurrent
// workers. On error the caller must stop the grid: later cells would
// not be durable, and completing a multi-hour run whose results cannot
// be exported safely is worse than failing fast (everything already
// streamed remains resumable).
func (w *checkpointWriter) write(c *cell) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		if err := w.enc.Encode(c); err != nil {
			w.err = fmt.Errorf("harness: checkpoint: %w", err)
		} else if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("harness: checkpoint: %w", err)
		}
	}
	return w.err
}

// firstErr returns the first write error, if any.
func (w *checkpointWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *checkpointWriter) close() { w.f.Close() }
