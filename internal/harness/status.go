package harness

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"text/tabwriter"
)

// Status summarizes a checkpoint file without executing anything: how
// much of the planned grid is done, what remains, and which completed
// cells the paper would report as DNF. The plan is re-derived from the
// checkpoint's own header fingerprint, so no run configuration (and no
// dataset generation) is needed — reading a multi-hour run's progress
// costs milliseconds.
type Status struct {
	Path        string
	Fingerprint Fingerprint
	Total       int // planned grid cells
	Done        int // cells with a checkpoint record
	DNF         int // done cells recording a did-not-finish
	Engines     []EngineStatus
}

// EngineStatus is the per-engine slice of a Status, in the run's
// engine order.
type EngineStatus struct {
	Engine string
	Total  int
	Done   int
	DNF    int
}

// Remaining returns the number of cells a resumed run would execute.
func (s *Status) Remaining() int { return s.Total - s.Done }

// ReadStatus reads a checkpoint file and summarizes its progress per
// engine. The -status command renders its result.
func ReadStatus(path string) (*Status, error) {
	fp, cells, err := readCheckpoint(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("harness: no checkpoint at %s", path)
	case errors.Is(err, errCheckpointEmpty):
		return nil, fmt.Errorf("harness: checkpoint %s is empty (the run crashed before its header was written); a resumed run starts fresh", path)
	case err != nil:
		return nil, err
	}

	// The same drift guard resume applies: a checkpoint whose plan no
	// longer matches this build's planGrid would silently misattribute
	// every record (readCheckpoint already refused a foreign version).
	jobs := planGrid(fp.Engines, fp.Datasets)
	if fp.Jobs != len(jobs) {
		return nil, fmt.Errorf("harness: checkpoint %s planned %d cells but this build plans %d for the same engines and datasets; the builds are incompatible", path, fp.Jobs, len(jobs))
	}
	st := &Status{Path: path, Fingerprint: fp, Total: len(jobs)}
	st.Engines = make([]EngineStatus, len(fp.Engines))
	per := make(map[string]*EngineStatus, len(fp.Engines))
	for i, e := range fp.Engines {
		st.Engines[i] = EngineStatus{Engine: e}
		per[e] = &st.Engines[i]
	}
	for i, j := range jobs {
		es := per[j.engine]
		es.Total++
		c, ok := cells[i]
		if !ok {
			continue
		}
		st.Done++
		es.Done++
		if cellDNF(c) {
			st.DNF++
			es.DNF++
		}
	}
	return st, nil
}

// cellDNF reports whether a completed cell recorded the paper's DNF —
// a failed load, or any dependent measurement carrying the "DNF: …"
// error dnf() writes.
func cellDNF(c cell) bool {
	for _, l := range c.Loads {
		if l.Failed {
			return true
		}
	}
	for _, ms := range [][]Measurement{c.Micro, c.Indexed, c.Complex} {
		for _, m := range ms {
			if m.Failed && strings.HasPrefix(m.Error, "DNF: ") {
				return true
			}
		}
	}
	return false
}

// Render prints the summary: one headline, the identifying config, and
// a per-engine table.
func (s *Status) Render(w io.Writer) {
	fmt.Fprintf(w, "checkpoint %s: %d/%d cells done, %d remaining, %d DNF\n",
		s.Path, s.Done, s.Total, s.Remaining(), s.DNF)
	fp := s.Fingerprint
	fmt.Fprintf(w, "run: engines=%s datasets=%s scale=%g seed=%d batch=%d timeout=%s",
		strings.Join(fp.Engines, ","), strings.Join(fp.Datasets, ","),
		fp.Scale, fp.Seed, fp.BatchSize, fp.Timeout)
	if fp.FrozenClock {
		fmt.Fprint(w, " frozen-clock")
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tdone\tremaining\tdnf")
	for _, es := range s.Engines {
		fmt.Fprintf(tw, "%s\t%d/%d\t%d\t%d\n", es.Engine, es.Done, es.Total, es.Total-es.Done, es.DNF)
	}
	tw.Flush()
}
