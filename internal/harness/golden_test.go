package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/race"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// syntheticResults builds, by hand, a result set that takes every
// rendering branch: durations from µs to minutes, timeouts, an OOM,
// plain failures, a failed load with its DNF cells, an engine with no
// cells at all, indexed and complex cells, and Table 3 statistics.
// Durations derive from a hash of the cell's name, so the set is the
// same on every run and platform.
func syntheticResults() *Results {
	engs := []string{"arango", "blaze", "neo-1.9", "neo-3.0", "orient", "sparksee", "sqlg", "titan-0.5", "titan-1.0", "ghost"}
	dss := []string{"frb-s", "frb-m", "ldbc"}
	res := &Results{
		Config: Config{Engines: engs, Datasets: dss, Scale: 0.002, Timeout: 90 * time.Second, BatchSize: 10},
		Stats:  map[string]datasets.Table3Row{},
	}
	hash := func(parts ...string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(strings.Join(parts, "|")))
		return h.Sum64()
	}
	// dur scales a per-engine factor (ranking the engines, so Table 4
	// has every verdict) by a per-query unit and a hashed jitter of up
	// to 2x; values land in every fmtDur range, µs to minutes.
	factor := map[string]float64{"arango": 2, "blaze": 400, "neo-1.9": 1, "neo-3.0": 8, "orient": 1.5,
		"sparksee": 4, "sqlg": 60, "titan-0.5": 25, "titan-1.0": 150}
	dur := func(e string, h uint64, unit time.Duration) time.Duration {
		return time.Duration(float64(unit) * factor[e] * (1 + float64(h%1000)/1000))
	}
	unitOf := func(q string, mode Mode) time.Duration {
		u := 2 * time.Microsecond
		if n, _ := strconv.Atoi(strings.TrimPrefix(strings.SplitN(q, "(", 2)[0], "Q")); n >= 28 || n == 0 {
			u = 3 * time.Millisecond // degree filters, BFS, shortest paths, complex queries
		}
		if mode == ModeBatch {
			u *= 10
		}
		return u
	}
	failedLoad := func(e, d string) bool { return e == "arango" && d == "frb-m" }
	cellOf := func(e, d, q string, mode Mode) Measurement {
		h := hash(e, d, q, string(mode))
		m := Measurement{Engine: e, Dataset: d, Query: q, Mode: mode, Elapsed: dur(e, h, unitOf(q, mode)), Count: int64(h % 1000)}
		switch {
		case failedLoad(e, d):
			m = Measurement{Engine: e, Dataset: d, Query: q, Mode: mode, Failed: true, Error: "DNF: arango on frb-m: load: boom"}
		case e == "sparksee" && d == "frb-m" && q == "Q28":
			m.Failed, m.Error, m.Count = true, "sparksee: out of memory", 0
		case h%97 == 0:
			m.TimedOut, m.Error, m.Elapsed, m.Count = true, "query timed out", res.Config.Timeout, 0
		case h%151 == 0:
			m.Failed, m.Error = true, "boom"
		}
		return m
	}
	for _, d := range dss {
		res.Stats[d] = datasets.Table3Row{V: 1000 + len(d), E: 5000 + len(d), L: 7, Components: 3, MaxComp: 990,
			Density: 5.0 / 999, Modularity: 0.25, AvgDeg: 10.5, MaxDeg: 300, Diameter: 9}
		for _, e := range engs[:len(engs)-1] {
			h := hash(e, d, "Q1")
			l := LoadMeasurement{Engine: e, Dataset: d, Elapsed: dur(e, h, 50*time.Millisecond), RawJSON: int64(len(d)) << 20,
				Space: core.SpaceReport{Total: int64(h % (500 << 20))}}
			if failedLoad(e, d) {
				l = LoadMeasurement{Engine: e, Dataset: d, RawJSON: l.RawJSON, Failed: true, Error: "arango on frb-m: load: boom"}
			}
			res.Loads = append(res.Loads, l)
			for _, mode := range []Mode{ModeInteractive, ModeBatch} {
				for _, q := range queryOrder() {
					for _, name := range queryCells(&q) {
						res.Micro = append(res.Micro, cellOf(e, d, name, mode))
					}
				}
			}
			if e != "blaze" {
				res.Indexed = append(res.Indexed, cellOf(e, d, "Q11(idx)", ModeInteractive), cellOf(e, d, "Q5(idx)", ModeInteractive))
			}
			if d == "ldbc" {
				for _, cq := range workload.ComplexQueries() {
					res.Complex = append(res.Complex, cellOf(e, d, cq.Name, ModeInteractive))
				}
			}
		}
	}
	return res
}

// TestReportsGolden pins the bytes of every report rendered from
// syntheticResults. Geometric means go through math.Log and math.Exp,
// whose last bits may differ between architectures, and the shapes
// report prints them at nanosecond precision, so the bytes are compared
// on amd64 only; elsewhere the reports must still render. Run with
// -update to rewrite testdata/reports.golden.
func TestReportsGolden(t *testing.T) {
	res := syntheticResults()
	var got bytes.Buffer
	for _, name := range ReportNames() {
		fmt.Fprintf(&got, "=== %s ===\n", name)
		if err := Report(res, name, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	golden := filepath.Join("testdata", "reports.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned on amd64; this is %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, golden, string(want), got.String())
}

// diffLines fails t at the first line where got departs from want.
func diffLines(t *testing.T, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s: line %d differs\nwant: %q\ngot:  %q", what, i+1, wl, gl)
		}
	}
}

// frozenGridSHA256 is the sha256 of the JSON export of TestFrozenGridGolden's
// grid, the same bytes as `gdb-bench -datasets frb-s,mico,ldbc -scale
// 0.002 -workers 2 -frozen-clock -export-json`.
const frozenGridSHA256 = "8ec26a23b66828eb5d31cf2634d3036c6c7be5e8903f5b6a984a57c69a84ab01"

// TestFrozenGridGolden pins the frozen-clock grid of all nine engines
// on frb-s, mico and ldbc: a committed table of every cell's result
// count (testdata/frozen_grid.golden, checked everywhere, so a failure
// names the cell that moved), and the export's sha256 (amd64 only: the
// Table 3 statistics in it are floating-point sums). It takes about as
// long as the gdb-bench run, so -short skips it, and so does -race,
// under which it would take minutes. Run with -update to rewrite the
// table; the test prints the sha256 it got.
func TestFrozenGridGolden(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("runs the full frozen-clock grid")
	}
	r, err := NewRunner(Config{Datasets: []string{"frb-s", "mico", "ldbc"}, Scale: 0.002, Timeout: 2 * time.Second,
		BatchSize: 10, Seed: 1, Workers: 2, FrozenClock: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := countTable(res)
	golden := filepath.Join("testdata", "frozen_grid.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	diffCells(t, string(want), got)

	var export bytes.Buffer
	if err := ExportJSON(res, &export); err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(export.Bytes()))
	if runtime.GOARCH == "amd64" && sum != frozenGridSHA256 {
		t.Errorf("export sha256 %s, want %s (%d bytes)", sum, frozenGridSHA256, export.Len())
	}
}

// countTable lays res out as one line per (query, mode) and one column
// per engine; a column holds the result count of each dataset's cell,
// "/"-separated in Config.Datasets order, T for a timeout and F for a
// failure. The Q1 line holds each load's space total instead.
func countTable(res *Results) string {
	v := newView(res)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s", "query mode")
	for _, e := range res.Config.Engines {
		fmt.Fprintf(&b, " %s", e)
	}
	b.WriteString("\n")
	row := func(label string, cell func(e, d string) string) {
		fmt.Fprintf(&b, "%-24s", label)
		for _, e := range res.Config.Engines {
			var col []string
			for _, d := range res.Config.Datasets {
				col = append(col, cell(e, d))
			}
			fmt.Fprintf(&b, " %s", strings.Join(col, "/"))
		}
		b.WriteString("\n")
	}
	row("Q1 space", func(e, d string) string {
		return v.loadCell(e, d, func(l LoadMeasurement) string { return strconv.FormatInt(l.Space.Total, 10) })
	})
	seen := map[[2]string]bool{}
	for _, ms := range [][]Measurement{res.Micro, res.Indexed, res.Complex} {
		for _, m := range ms {
			qm := [2]string{m.Query, string(m.Mode)}
			if seen[qm] {
				continue
			}
			seen[qm] = true
			row(m.Query+" "+string(m.Mode), func(e, d string) string {
				c, ok := v.cells[key{e, d, qm[0], Mode(qm[1])}]
				switch {
				case !ok:
					return "-"
				case c.TimedOut:
					return "T"
				case c.Failed:
					return "F"
				}
				return strconv.FormatInt(c.Count, 10)
			})
		}
	}
	return b.String()
}

// diffCells compares two count tables cell by cell and names every
// (engine, query, mode) whose counts differ.
func diffCells(t *testing.T, want, got string) {
	t.Helper()
	parse := func(table string) (engs []string, cells map[string]string) {
		cells = map[string]string{}
		lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
		engs = strings.Fields(lines[0])[2:]
		for _, line := range lines[1:] {
			f := strings.Fields(line)
			for i, e := range engs {
				if 2+i < len(f) {
					cells[e+" "+f[0]+" "+f[1]] = f[2+i]
				}
			}
		}
		return engs, cells
	}
	wantEngs, w := parse(want)
	gotEngs, g := parse(got)
	if !slices.Equal(wantEngs, gotEngs) {
		t.Fatalf("engines %v, want %v", gotEngs, wantEngs)
	}
	moved := 0
	for k, wv := range w {
		if gv, ok := g[k]; !ok || gv != wv {
			t.Errorf("%s: counts %q, want %q (per dataset)", k, gv, wv)
			moved++
		}
	}
	for k, gv := range g {
		if _, ok := w[k]; !ok {
			t.Errorf("%s: new cell %q", k, gv)
			moved++
		}
	}
	if moved > 0 {
		t.Logf("%d (engine, query, mode) entries moved", moved)
	}
}
