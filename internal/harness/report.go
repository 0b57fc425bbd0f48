package harness

import (
	"fmt"
	"io"
	"math"
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

type index map[key]Measurement

func (res *Results) index() index {
	ix := index{}
	for _, m := range res.Micro {
		ix[key{m.Engine, m.Dataset, m.Query, m.Mode}] = m
	}
	for _, m := range res.Indexed {
		ix[key{m.Engine, m.Dataset, m.Query, m.Mode}] = m
	}
	for _, m := range res.Complex {
		ix[key{m.Engine, m.Dataset, m.Query, m.Mode}] = m
	}
	return ix
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

// queryMatrix renders (engine × query) for one mode, one dataset group:
// columns are query@dataset.
func (res *Results) queryMatrix(w io.Writer, title string, queries []string, mode Mode) {
	ix := res.index()
	var cols []string
	for _, q := range queries {
		for _, d := range res.Config.Datasets {
			cols = append(cols, q+"@"+d)
		}
	}
	matrix(w, title, res.Config.Engines, cols, func(e, c string) string {
		parts := strings.SplitN(c, "@", 2)
		m, ok := ix[key{e, parts[1], parts[0], mode}]
		return cellText(m, ok)
	})
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

// ReportFig1Space prints space occupancy per engine per dataset
// (Figure 1(a,b)), plus the raw GraphSON size.
func ReportFig1Space(res *Results, w io.Writer) {
	byDS := map[string]int64{}
	ix := map[string]map[string]int64{}
	dnfLoad := map[string]map[string]bool{}
	for _, l := range res.Loads {
		byDS[l.Dataset] = l.RawJSON
		if ix[l.Engine] == nil {
			ix[l.Engine] = map[string]int64{}
			dnfLoad[l.Engine] = map[string]bool{}
		}
		ix[l.Engine][l.Dataset] = l.Space.Total
		dnfLoad[l.Engine][l.Dataset] = l.Failed
	}
	matrix(w, "Figure 1(a,b): space occupancy (MB)", append(res.Config.Engines, "raw-json"),
		res.Config.Datasets, func(e, d string) string {
			if e == "raw-json" {
				return fmt.Sprintf("%.2f", float64(byDS[d])/(1<<20))
			}
			b, ok := ix[e][d]
			if !ok {
				return "-"
			}
			if dnfLoad[e][d] {
				return "DNF"
			}
			return fmt.Sprintf("%.2f", float64(b)/(1<<20))
		})
}

// ReportFig1cTimeouts prints the number of timed-out or failed queries
// per engine in interactive and batch mode (Figure 1(c)).
func ReportFig1cTimeouts(res *Results, w io.Writer) {
	counts := map[string]map[Mode]int{}
	for _, m := range res.Micro {
		if counts[m.Engine] == nil {
			counts[m.Engine] = map[Mode]int{}
		}
		if m.TimedOut || m.Failed {
			counts[m.Engine][m.Mode]++
		}
	}
	matrix(w, "Figure 1(c): # timeouts/failures, Interactive (I) and Batch (B)",
		res.Config.Engines, []string{"I", "B"}, func(e, c string) string {
			mode := ModeInteractive
			if c == "B" {
				mode = ModeBatch
			}
			return fmt.Sprintf("%d", counts[e][mode])
		})
}

// ReportFig2Complex prints the complex query latencies on ldbc.
func ReportFig2Complex(res *Results, w io.Writer) {
	ix := res.index()
	var cols []string
	for _, cq := range workload.ComplexQueries() {
		cols = append(cols, cq.Name)
	}
	matrix(w, "Figure 2: complex query performance on ldbc",
		res.Config.Engines, cols, func(e, c string) string {
			m, ok := ix[key{e, "ldbc", c, ModeInteractive}]
			return cellText(m, ok)
		})
}

// ReportFig3Load prints loading times (Figure 3(a)).
func ReportFig3Load(res *Results, w io.Writer) {
	ix := map[string]map[string]time.Duration{}
	dnfLoad := map[string]map[string]bool{}
	for _, l := range res.Loads {
		if ix[l.Engine] == nil {
			ix[l.Engine] = map[string]time.Duration{}
			dnfLoad[l.Engine] = map[string]bool{}
		}
		ix[l.Engine][l.Dataset] = l.Elapsed
		dnfLoad[l.Engine][l.Dataset] = l.Failed
	}
	matrix(w, "Figure 3(a): loading time", res.Config.Engines, res.Config.Datasets,
		func(e, d string) string {
			t, ok := ix[e][d]
			if !ok {
				return "-"
			}
			if dnfLoad[e][d] {
				return "DNF"
			}
			return fmtDur(t)
		})
}

// ReportFig3Insert prints Q2–Q7 (Figure 3(b)).
func ReportFig3Insert(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 3(b): insertions (interactive)",
		[]string{"Q2", "Q3", "Q4", "Q5", "Q6", "Q7"}, ModeInteractive)
}

// ReportFig3UpdateDelete prints Q16–Q21 (Figure 3(c)).
func ReportFig3UpdateDelete(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 3(c): updates and deletions (interactive)",
		[]string{"Q16", "Q17", "Q18", "Q19", "Q20", "Q21"}, ModeInteractive)
}

// ReportFig4Select prints Q8–Q13 (Figure 4(a)).
func ReportFig4Select(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 4(a): scans and selections (interactive)",
		[]string{"Q8", "Q9", "Q10", "Q11", "Q12", "Q13"}, ModeInteractive)
}

// ReportFig4ByID prints Q14–Q15 (Figure 4(b)).
func ReportFig4ByID(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 4(b): search by id (interactive)",
		[]string{"Q14", "Q15"}, ModeInteractive)
}

// ReportFig4cIndex prints Q11 with an attribute index (Figure 4(c)),
// plus the index-maintenance cost on property insertion (the §6.4
// "insertions become slower" observation).
func ReportFig4cIndex(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 4(c): Q11 with attribute index (engines without exploitable indexes keep their scan time; blaze unsupported)",
		[]string{"Q11", "Q11(idx)"}, ModeInteractive)
	res.queryMatrix(w, "Section 6.4: index maintenance cost on property insertion",
		[]string{"Q5", "Q5(idx)"}, ModeInteractive)
}

// ReportFig5Local prints Q22–Q27 (Figure 5(a)).
func ReportFig5Local(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 5(a): local traversals (interactive)",
		[]string{"Q22", "Q23", "Q24", "Q25", "Q26", "Q27"}, ModeInteractive)
}

// ReportFig5Degree prints Q28–Q31 (Figure 5(b)).
func ReportFig5Degree(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 5(b): degree filters over all nodes (interactive)",
		[]string{"Q28", "Q29", "Q30", "Q31"}, ModeInteractive)
}

// ReportFig6BFS prints Q32 at depths 2–5 (Figure 6).
func ReportFig6BFS(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 6: breadth-first traversal at depth 2-5 (interactive)",
		[]string{"Q32(d=2)", "Q32(d=3)", "Q32(d=4)", "Q32(d=5)"}, ModeInteractive)
}

// ReportFig7SP prints Q34 (Figure 7(a)) and the label-constrained
// variants Q33/Q35 (Figure 7(b), meaningful on ldbc).
func ReportFig7SP(res *Results, w io.Writer) {
	res.queryMatrix(w, "Figure 7(a): unlabelled shortest path (interactive)",
		[]string{"Q34"}, ModeInteractive)
	res.queryMatrix(w, "Figure 7(b): label-constrained BFS and shortest path (interactive)",
		[]string{"Q33", "Q35"}, ModeInteractive)
}

// ReportFig7Overall prints cumulative times for single and batch
// executions (Figure 7(c,d)). Timed-out and failed cells (including
// DNF, whose recorded time is zero) are charged the timeout, as the
// paper's cumulative plots do — a broken engine must not rank best.
func ReportFig7Overall(res *Results, w io.Writer) {
	tot := map[string]map[Mode]time.Duration{}
	for _, m := range res.Micro {
		if tot[m.Engine] == nil {
			tot[m.Engine] = map[Mode]time.Duration{}
		}
		d := m.Elapsed
		if m.TimedOut || m.Failed {
			d = res.Config.Timeout
		}
		tot[m.Engine][m.Mode] += d
	}
	matrix(w, "Figure 7(c,d): cumulative time over the whole micro workload",
		res.Config.Engines, []string{"interactive", "batch"}, func(e, c string) string {
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
