package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"repro/internal/datasets"
)

// exportDoc is the document ExportJSON writes and ImportJSON reads: the
// run's Grid, then its measurements.
type exportDoc struct {
	Grid
	// TimeoutMS is read from exports written before the Grid was, which
	// carried scale, batch size and this truncated timeout only.
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
	Loads     []LoadMeasurement `json:"loads"`
	Micro     []Measurement     `json:"micro"`
	Indexed   []Measurement     `json:"indexed"`
	Complex   []Measurement     `json:"complex"`
	// Stats holds the Table 3 rows; exports written before it existed
	// import with an empty Table 3.
	Stats map[string]datasets.Table3Row `json:"stats,omitempty"`
}

// ExportJSON writes the full result set as JSON, for archival or
// external plotting of the figures. Every field round-trips exactly
// (durations are nanosecond integers, space breakdowns re-encode with
// sorted keys), which is what lets checkpoint/resume promise a
// byte-identical export after an interruption.
func ExportJSON(res *Results, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(exportDoc{
		Grid:    res.Config.Grid,
		Loads:   res.Loads,
		Micro:   res.Micro,
		Indexed: res.Indexed,
		Complex: res.Complex,
		Stats:   res.Stats,
	})
}

// ExportCSV writes one row per measurement (loads included, with query
// "Q1"), the flat format the paper's plotting scripts consume.
func ExportCSV(res *Results, w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"engine", "dataset", "query", "mode", "micros", "timeout", "failed", "count"}); err != nil {
		return err
	}
	for _, l := range res.Loads {
		rec := []string{l.Engine, l.Dataset, "Q1", string(ModeInteractive),
			strconv.FormatInt(l.Elapsed.Microseconds(), 10), "false",
			strconv.FormatBool(l.Failed),
			strconv.FormatInt(l.Space.Total, 10)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	all := make([]Measurement, 0, len(res.Micro)+len(res.Indexed)+len(res.Complex))
	all = append(all, res.Micro...)
	all = append(all, res.Indexed...)
	all = append(all, res.Complex...)
	for _, m := range all {
		rec := []string{m.Engine, m.Dataset, m.Query, string(m.Mode),
			strconv.FormatInt(m.Elapsed.Microseconds(), 10),
			strconv.FormatBool(m.TimedOut), strconv.FormatBool(m.Failed),
			strconv.FormatInt(m.Count, 10)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ImportJSON reads a result set previously written by ExportJSON,
// restoring the run's Grid and the Table 3 statistics. An export
// written before the Grid was restores scale, batch size and the
// millisecond timeout it kept; the engines and datasets report
// rendering needs are reconstructed from its measurements.
func ImportJSON(r io.Reader) (*Results, error) {
	var raw exportDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("harness: import: %w", err)
	}
	res := &Results{
		Config:  Config{Grid: raw.Grid},
		Loads:   raw.Loads,
		Micro:   raw.Micro,
		Indexed: raw.Indexed,
		Complex: raw.Complex,
		Stats:   raw.Stats,
	}
	if len(raw.Engines) > 0 {
		return res, nil
	}
	res.Config.Timeout = time.Duration(raw.TimeoutMS) * time.Millisecond
	g := &res.Config.Grid
	record := func(e, d string) {
		if !slices.Contains(g.Engines, e) {
			g.Engines = append(g.Engines, e)
		}
		if !slices.Contains(g.Datasets, d) {
			g.Datasets = append(g.Datasets, d)
		}
	}
	for _, l := range raw.Loads {
		record(l.Engine, l.Dataset)
	}
	for _, m := range raw.Micro {
		record(m.Engine, m.Dataset)
	}
	return res, nil
}
