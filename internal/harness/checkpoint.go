package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
)

// checkpointVersion guards the on-disk checkpoint format; bump it when
// cell or Fingerprint change shape, or when planGrid changes the
// meaning of cell indexes. v2: the micro cell split into separately
// resumable interactive (micro-i) and batch (micro-b) halves — a v1
// checkpoint's indexes would misattribute every record. v3: the
// fingerprint lost its always-true isolation field. v4: it gained
// cell_workers. v5: query parameters are drawn without replacement and
// laid out per query, so a v4 checkpoint's cells ran other targets.
const checkpointVersion = 5

// Fingerprint identifies the result-relevant part of a configuration:
// two runs with equal fingerprints plan the same grid and measure the
// same logical cells, so a checkpoint written by one can be replayed by
// the other. It is the run's Grid whole; Exec, which never changes
// results, is absent.
type Fingerprint struct {
	Version int `json:"version"`
	Grid
	Jobs int `json:"jobs"` // grid plan length, a final drift guard
}

// fingerprint derives the checkpoint compatibility key for this run.
func (r *Runner) fingerprint(jobs int) Fingerprint {
	return Fingerprint{Version: checkpointVersion, Grid: r.cfg.Grid, Jobs: jobs}
}

// equal compares every field, so a field added to Fingerprint guards
// resume and -status without further wiring.
func (f Fingerprint) equal(o Fingerprint) bool { return reflect.DeepEqual(f, o) }

// errCheckpointEmpty marks a checkpoint file that exists but has no
// header line yet — recoverable for resume (start fresh), reportable
// for -status.
var errCheckpointEmpty = errors.New("harness: checkpoint file is empty")

// readCheckpoint parses a JSONL checkpoint file into its header
// fingerprint and completed cells, without judging compatibility —
// resume (loadCheckpoint) and the -status command (ReadStatus) share
// it. The one judgement it does make is the record format version: a
// file written under another version would be misread, not merely
// mismatched, so it is refused here for both. A torn trailing line —
// the footprint of the crash the checkpoint exists to survive —
// truncates recovery at the last complete record. A missing file
// surfaces as fs.ErrNotExist.
func readCheckpoint(path string) (Fingerprint, map[int]cell, error) {
	var got Fingerprint
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return got, nil, err
	}
	if err != nil {
		return got, nil, fmt.Errorf("harness: checkpoint: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return got, nil, errCheckpointEmpty
	}
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		return got, nil, fmt.Errorf("harness: checkpoint %s: bad header: %w", path, err)
	}
	if got.Version != checkpointVersion {
		return got, nil, fmt.Errorf("harness: checkpoint %s was written with record format v%d; this build reads v%d", path, got.Version, checkpointVersion)
	}

	cells := make(map[int]cell)
	for sc.Scan() {
		var c cell
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			break // torn or partial line: recover everything before it
		}
		if c.Index < 0 || c.Index >= got.Jobs {
			break
		}
		cells[c.Index] = c
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return got, nil, fmt.Errorf("harness: checkpoint %s: %w", path, err)
	}
	return got, cells, nil
}

// loadCheckpoint recovers the completed cells of a previous run from a
// JSONL checkpoint file. A missing or still-empty file is not an error
// (the run simply starts fresh); an existing file whose fingerprint
// differs from want is (silently mixing measurements from two
// configurations would corrupt the result set).
func loadCheckpoint(path string, want Fingerprint) (map[int]cell, error) {
	got, cells, err := readCheckpoint(path)
	switch {
	case errors.Is(err, fs.ErrNotExist) || errors.Is(err, errCheckpointEmpty):
		return nil, nil
	case err != nil:
		return nil, err
	}
	if !got.equal(want) {
		return nil, fmt.Errorf("harness: checkpoint %s was written by an incompatible configuration (engines, datasets, scale, seed, batch, timeout, frozen-clock or cell-workers differ); remove it or rerun with the original flags", path)
	}
	return cells, nil
}
