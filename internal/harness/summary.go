package harness

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// table4Categories are the paper's Table 4 columns, mapped to the query
// numbers each one aggregates; Load, with no queries, aggregates the
// load measurements.
var table4Categories = []struct {
	name    string
	queries []string
}{
	{"Load", nil},
	{"Insertions", []string{"Q2", "Q3", "Q4", "Q5", "Q6", "Q7"}},
	{"GraphStatistics", []string{"Q8", "Q9", "Q10"}},
	{"SearchPropLabel", []string{"Q11", "Q12", "Q13"}},
	{"SearchById", []string{"Q14", "Q15"}},
	{"Updates", []string{"Q16", "Q17"}},
	{"DeleteNode", []string{"Q18"}},
	{"OtherDeletions", []string{"Q19", "Q20", "Q21"}},
	{"Neighbors", []string{"Q22", "Q23", "Q24"}},
	{"NodeEdgeLabels", []string{"Q25", "Q26", "Q27"}},
	{"DegreeFilter", []string{"Q28", "Q29", "Q30", "Q31"}},
	{"BFS", []string{"Q32(d=2)", "Q32(d=3)", "Q32(d=4)", "Q32(d=5)", "Q33"}},
	{"ShortestPath", []string{"Q34", "Q35"}},
}

// Table 4 symbols: best or near-best, unremarkable, problematic, and
// no cells.
const (
	verdictGood  = "ok"
	verdictMid   = ""
	verdictWarn  = "warn"
	verdictUnrun = "-"
)

// goodFactor and warnFactor classify an engine by its geometric-mean
// slowdown against the category's best engine.
const (
	goodFactor = 3.0
	warnFactor = 30.0
)

// perf is one engine's aggregate over a set of its cells, the number
// Table 4 and the shapes compare engines by: the geometric mean of the
// successful cells, whether there were any cells, and whether any
// failed or timed out. Failed cells stay out of the mean: a DNF's zero
// Elapsed would rank the broken engine fastest.
type perf struct {
	g            time.Duration
	seen, failed bool
}

// queryPerf aggregates engine's interactive micro cells of queries over
// every dataset.
func (v *view) queryPerf(engine string, queries []string) perf {
	var p perf
	var ds []time.Duration
	for _, m := range v.Micro {
		if m.Engine != engine || m.Mode != ModeInteractive || !slices.Contains(queries, m.Query) {
			continue
		}
		p.seen = true
		if m.TimedOut || m.Failed {
			p.failed = true
			continue
		}
		ds = append(ds, m.Elapsed)
	}
	p.g = geomean(ds)
	return p
}

// loadPerf aggregates engine's loads over every dataset.
func (v *view) loadPerf(engine string) perf {
	var p perf
	var ds []time.Duration
	for _, l := range v.Loads {
		if l.Engine != engine {
			continue
		}
		p.seen = true
		if l.Failed {
			p.failed = true
			continue
		}
		ds = append(ds, l.Elapsed)
	}
	p.g = geomean(ds)
	return p
}

// verdict classifies p against the best engine's geomean: "ok" within
// goodFactor of it, "warn" at warnFactor or beyond or after any failure,
// "-" without cells.
func (p perf) verdict(best time.Duration) string {
	switch {
	case !p.seen:
		return verdictUnrun
	case p.failed:
		return verdictWarn
	case float64(p.g) <= goodFactor*float64(best):
		return verdictGood
	case float64(p.g) >= warnFactor*float64(best):
		return verdictWarn
	default:
		return verdictMid
	}
}

// reportTable4 renders the summary matrix (Table 4): "ok" is the
// paper's check mark, "warn" its warning sign. A category's best is the
// lowest geomean of successful cells over every engine, those with a
// failure included.
func reportTable4(v *view, w io.Writer) {
	engs := v.Config.Engines
	verdicts := make([][]string, len(table4Categories)) // [category][engine]
	for c, cat := range table4Categories {
		perfs := make([]perf, len(engs))
		var best time.Duration
		for i, e := range engs {
			if cat.queries == nil {
				perfs[i] = v.loadPerf(e)
			} else {
				perfs[i] = v.queryPerf(e, cat.queries)
			}
			if g := perfs[i].g; g > 0 && (best == 0 || g < best) {
				best = g
			}
		}
		for _, p := range perfs {
			verdicts[c] = append(verdicts[c], p.verdict(best))
		}
	}
	fmt.Fprintln(w, "Table 4: evaluation summary (ok = best or near-best; warn = low end or execution problems)")
	fmt.Fprintf(w, "%-12s", "engine")
	for _, c := range table4Categories {
		fmt.Fprintf(w, " %-15s", c.name)
	}
	fmt.Fprintln(w)
	for i, e := range engs {
		fmt.Fprintf(w, "%-12s", e)
		for c := range table4Categories {
			fmt.Fprintf(w, " %-15s", verdicts[c][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// reports is the single declaration of every table and figure, in paper
// order; "all" renders them in this order, skipping Figure 2 when the
// run has no complex cells.
var reports = []struct {
	name string
	fn   func(*view, io.Writer)
}{
	{"table1", func(_ *view, w io.Writer) { ReportTable1(w) }},
	{"table2", func(_ *view, w io.Writer) { ReportTable2(w) }},
	{"table3", func(v *view, w io.Writer) { ReportTable3(v.Results, w) }},
	{"fig1", reportFig1},
	{"fig1c", reportFig1c},
	{"fig2", reportFig2},
	{"fig3a", reportFig3a},
	{"fig3b", matrices(queryMatrix{"Figure 3(b): insertions (interactive)",
		[]string{"Q2", "Q3", "Q4", "Q5", "Q6", "Q7"}})},
	{"fig3c", matrices(queryMatrix{"Figure 3(c): updates and deletions (interactive)",
		[]string{"Q16", "Q17", "Q18", "Q19", "Q20", "Q21"}})},
	{"fig4a", matrices(queryMatrix{"Figure 4(a): scans and selections (interactive)",
		[]string{"Q8", "Q9", "Q10", "Q11", "Q12", "Q13"}})},
	{"fig4b", matrices(queryMatrix{"Figure 4(b): search by id (interactive)",
		[]string{"Q14", "Q15"}})},
	// Q11 with an attribute index, plus the index-maintenance cost on
	// property insertion (the §6.4 "insertions become slower" finding).
	{"fig4c", matrices(
		queryMatrix{"Figure 4(c): Q11 with attribute index (engines without exploitable indexes keep their scan time; blaze unsupported)",
			[]string{"Q11", "Q11(idx)"}},
		queryMatrix{"Section 6.4: index maintenance cost on property insertion",
			[]string{"Q5", "Q5(idx)"}})},
	{"fig5a", matrices(queryMatrix{"Figure 5(a): local traversals (interactive)",
		[]string{"Q22", "Q23", "Q24", "Q25", "Q26", "Q27"}})},
	{"fig5b", matrices(queryMatrix{"Figure 5(b): degree filters over all nodes (interactive)",
		[]string{"Q28", "Q29", "Q30", "Q31"}})},
	{"fig6", matrices(queryMatrix{"Figure 6: breadth-first traversal at depth 2-5 (interactive)",
		[]string{"Q32(d=2)", "Q32(d=3)", "Q32(d=4)", "Q32(d=5)"}})},
	// Q33/Q35 are meaningful on ldbc, the labelled dataset.
	{"fig7", matrices(
		queryMatrix{"Figure 7(a): unlabelled shortest path (interactive)", []string{"Q34"}},
		queryMatrix{"Figure 7(b): label-constrained BFS and shortest path (interactive)", []string{"Q33", "Q35"}})},
	{"fig7cd", reportFig7cd},
	{"table4", reportTable4},
	{"shapes", reportShapes},
}

// Report renders one named report, or every one for "all"; see
// ReportNames.
func Report(res *Results, name string, w io.Writer) error {
	if !ValidReport(name) {
		return fmt.Errorf("harness: unknown report %q (known: %v)", name, ReportNames())
	}
	v := newView(res)
	for _, r := range reports {
		if r.name == name || name == "all" && (r.name != "fig2" || len(res.Complex) > 0) {
			r.fn(v, w)
		}
	}
	return nil
}

// ValidReport reports whether name names a known report. Callers that
// run a grid before rendering (cmd/gdb-bench) validate up front, so an
// unknown report name is not discovered only after hours of execution.
func ValidReport(name string) bool {
	return slices.Contains(ReportNames(), name)
}

// ReportNames lists the available reports.
func ReportNames() []string {
	names := make([]string, 0, len(reports)+1)
	for _, r := range reports {
		names = append(names, r.name)
	}
	return append(names, "all")
}
