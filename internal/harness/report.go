package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/workload"
)

// key indexes measurements.
type key struct {
	engine, dataset, query string
	mode                   Mode
}

// view is what every report reads: a run's results plus one index of
// its cells and one of its loads, built once per Report call. It is
// not cached on Results, whose slices callers keep appending to.
type view struct {
	*Results
	cells map[key]Measurement           // micro, indexed and complex cells
	loads map[[2]string]LoadMeasurement // by (engine, dataset)
}

func newView(res *Results) *view {
	v := &view{
		Results: res,
		cells:   make(map[key]Measurement, len(res.Micro)+len(res.Indexed)+len(res.Complex)),
		loads:   make(map[[2]string]LoadMeasurement, len(res.Loads)),
	}
	for _, ms := range [][]Measurement{res.Micro, res.Indexed, res.Complex} {
		for _, m := range ms {
			v.cells[key{m.Engine, m.Dataset, m.Query, m.Mode}] = m
		}
	}
	for _, l := range res.Loads {
		v.loads[[2]string{l.Engine, l.Dataset}] = l
	}
	return v
}

// loadCell renders the (engine, dataset) load: "-" when there is none,
// DNF when it failed, else text of it.
func (v *view) loadCell(e, d string, text func(LoadMeasurement) string) string {
	l, ok := v.loads[[2]string{e, d}]
	switch {
	case !ok:
		return "-"
	case l.Failed:
		return "DNF"
	}
	return text(l)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func cellText(m Measurement, ok bool) string {
	switch {
	case !ok:
		return "-"
	case m.TimedOut:
		return "TIMEOUT"
	case m.Failed && strings.HasPrefix(m.Error, "DNF"):
		return "DNF"
	case m.Failed && strings.Contains(m.Error, "memory"):
		return "OOM"
	case m.Failed:
		return "FAIL"
	default:
		return fmtDur(m.Elapsed)
	}
}

// matrix prints a fixed-width table: one row per engine, one column per
// col label, cells produced by get.
func matrix(w io.Writer, title string, engineNames, cols []string, get func(engine, col string) string) {
	fmt.Fprintf(w, "%s\n", title)
	width := 9
	for _, c := range cols {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	fmt.Fprintf(w, "%-12s", "engine")
	for _, c := range cols {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for _, e := range engineNames {
		fmt.Fprintf(w, "%-12s", e)
		for _, c := range cols {
			fmt.Fprintf(w, "%*s", width, get(e, c))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// queryMatrix is one figure's (engine × query@dataset) matrix of
// interactive cells.
type queryMatrix struct {
	title   string
	queries []string
}

// matrices renders ms one after another.
func matrices(ms ...queryMatrix) func(*view, io.Writer) {
	return func(v *view, w io.Writer) {
		for _, m := range ms {
			var cols []string
			for _, q := range m.queries {
				for _, d := range v.Config.Datasets {
					cols = append(cols, q+"@"+d)
				}
			}
			matrix(w, m.title, v.Config.Engines, cols, func(e, c string) string {
				q, d, _ := strings.Cut(c, "@")
				cell, ok := v.cells[key{e, d, q, ModeInteractive}]
				return cellText(cell, ok)
			})
		}
	}
}

// ReportTable1 prints the engine feature matrix (Table 1).
func ReportTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Features and characteristics of the tested systems")
	fmt.Fprintf(w, "%-12s %-8s %-12s %-38s %-16s %-8s %s\n",
		"engine", "kind", "substrate", "storage", "traversal", "gremlin", "execution")
	for _, n := range engines.Names() {
		e, err := engines.New(n)
		if err != nil {
			continue
		}
		m := e.Meta()
		fmt.Fprintf(w, "%-12s %-8s %-12s %-38s %-16s %-8s %s\n",
			m.Name, m.Kind, m.Substrate, m.Storage, m.EdgeTraversal, m.Gremlin, m.Execution)
		e.Close()
	}
	fmt.Fprintln(w)
}

// ReportTable2 prints the query list (Table 2).
func ReportTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Test queries by category")
	fmt.Fprintf(w, "%-5s %-3s %-46s %s\n", "query", "cat", "gremlin", "description")
	fmt.Fprintf(w, "%-5s %-3s %-46s %s\n", "Q1", "L", `g.loadGraphSON("/path")`, "Load dataset into the graph g")
	for _, q := range workload.Queries() {
		fmt.Fprintf(w, "%-5s %-3s %-46s %s\n", q.Name, q.Cat, q.Gremlin, q.Desc)
	}
	fmt.Fprintln(w)
}

// ReportTable3 prints dataset characteristics next to the paper's. The
// measured modularity is that of the component partition; the paper
// does not say which partition its column scores (see
// datasets.StatsCSR), so that column compares no like quantities.
func ReportTable3(res *Results, w io.Writer) {
	fmt.Fprintf(w, "Table 3: Dataset characteristics (scale=%g; 'paper' rows are the full-size values;\n", res.Config.Scale)
	fmt.Fprintln(w, "measured modular. is component-partition modularity; the paper's definition is not recoverable)")
	fmt.Fprintf(w, "%-8s %-9s %9s %9s %6s %8s %9s %10s %10s %7s %8s %4s\n",
		"dataset", "source", "|V|", "|E|", "|L|", "comps", "maxcomp", "density", "modular.", "avgdeg", "maxdeg", "diam")
	names := make([]string, 0, len(res.Stats))
	for n := range res.Stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row := res.Stats[n]
		fmt.Fprintf(w, "%-8s %-9s %9d %9d %6d %8d %9d %10.2e %10.3f %7.1f %8d %4d\n",
			n, "measured", row.V, row.E, row.L, row.Components, row.MaxComp,
			row.Density, row.Modularity, row.AvgDeg, row.MaxDeg, row.Diameter)
		if spec := datasets.ByName(n); spec != nil {
			p := spec.Paper
			fmt.Fprintf(w, "%-8s %-9s %9d %9d %6d %8d %9d %10.2e %10.3f %7.1f %8d %4d\n",
				"", "paper", p.V, p.E, p.L, p.Components, p.MaxComp,
				p.Density, p.Modularity, p.AvgDeg, p.MaxDeg, p.Diameter)
		}
	}
	fmt.Fprintln(w)
}

// reportFig1 prints space occupancy per engine per dataset (Figure
// 1(a,b)), plus the raw GraphSON size.
func reportFig1(v *view, w io.Writer) {
	raw := map[string]int64{}
	for _, l := range v.Loads {
		raw[l.Dataset] = l.RawJSON
	}
	mb := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
	matrix(w, "Figure 1(a,b): space occupancy (MB)", append(slices.Clip(v.Config.Engines), "raw-json"),
		v.Config.Datasets, func(e, d string) string {
			if e == "raw-json" {
				return mb(raw[d])
			}
			return v.loadCell(e, d, func(l LoadMeasurement) string { return mb(l.Space.Total) })
		})
}

// reportFig1c prints the number of timed-out or failed queries per
// engine in interactive and batch mode (Figure 1(c)).
func reportFig1c(v *view, w io.Writer) {
	counts := map[string]map[Mode]int{}
	for _, m := range v.Micro {
		if counts[m.Engine] == nil {
			counts[m.Engine] = map[Mode]int{}
		}
		if m.TimedOut || m.Failed {
			counts[m.Engine][m.Mode]++
		}
	}
	matrix(w, "Figure 1(c): # timeouts/failures, Interactive (I) and Batch (B)",
		v.Config.Engines, []string{"I", "B"}, func(e, c string) string {
			mode := ModeInteractive
			if c == "B" {
				mode = ModeBatch
			}
			return fmt.Sprintf("%d", counts[e][mode])
		})
}

// reportFig2 prints the complex query latencies on ldbc.
func reportFig2(v *view, w io.Writer) {
	var cols []string
	for _, cq := range workload.ComplexQueries() {
		cols = append(cols, cq.Name)
	}
	matrix(w, "Figure 2: complex query performance on ldbc",
		v.Config.Engines, cols, func(e, c string) string {
			m, ok := v.cells[key{e, "ldbc", c, ModeInteractive}]
			return cellText(m, ok)
		})
}

// reportFig3a prints loading times (Figure 3(a)).
func reportFig3a(v *view, w io.Writer) {
	matrix(w, "Figure 3(a): loading time", v.Config.Engines, v.Config.Datasets,
		func(e, d string) string {
			return v.loadCell(e, d, func(l LoadMeasurement) string { return fmtDur(l.Elapsed) })
		})
}

// reportFig7cd prints cumulative times for single and batch executions
// (Figure 7(c,d)). Timed-out and failed cells (including DNF, whose
// recorded time is zero) are charged the timeout, as the paper's
// cumulative plots do — a broken engine must not rank best.
func reportFig7cd(v *view, w io.Writer) {
	tot := map[string]map[Mode]time.Duration{}
	for _, m := range v.Micro {
		if tot[m.Engine] == nil {
			tot[m.Engine] = map[Mode]time.Duration{}
		}
		d := m.Elapsed
		if m.TimedOut || m.Failed {
			d = v.Config.Timeout
		}
		tot[m.Engine][m.Mode] += d
	}
	matrix(w, "Figure 7(c,d): cumulative time over the whole micro workload",
		v.Config.Engines, []string{"interactive", "batch"}, func(e, c string) string {
			return fmtDur(tot[e][Mode(c)])
		})
}

// geomean of positive durations; zero when empty.
func geomean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ds {
		v := float64(d)
		if v < 1 {
			v = 1
		}
		sum += math.Log(v)
	}
	return time.Duration(math.Exp(sum / float64(len(ds))))
}
