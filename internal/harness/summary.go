package harness

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// Table4Category groups micro queries as in the columns of Table 4.
type Table4Category struct {
	Name    string
	Queries []string
}

// Table4Categories returns the paper's Table 4 columns, mapped to the
// query numbers each one aggregates.
func Table4Categories() []Table4Category {
	return []Table4Category{
		{"Load", nil}, // special-cased: uses load measurements
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
}

// Verdict is a Table 4 cell.
type Verdict string

// Table 4 symbols: best or near-best, unremarkable, problematic.
const (
	VerdictGood  Verdict = "ok"
	VerdictMid   Verdict = ""
	VerdictWarn  Verdict = "warn"
	VerdictUnrun Verdict = "-"
)

// goodFactor and warnFactor classify an engine by its geometric-mean
// slowdown against the category's best engine.
const (
	goodFactor = 3.0
	warnFactor = 30.0
)

// Summary derives the Table 4 matrix from the measurements: an engine
// earns "ok" in a category when its geometric mean latency is within
// goodFactor of the best engine's, and "warn" when it exceeds
// warnFactor or produced any timeout/failure in that category.
func Summary(res *Results) map[string]map[string]Verdict {
	cats := Table4Categories()
	out := map[string]map[string]Verdict{}
	for _, e := range res.Config.Engines {
		out[e] = map[string]Verdict{}
	}

	// Load category from the load measurements. DNF loads don't enter
	// the geomean (their zero Elapsed would rank the broken engine
	// fastest); like query failures, they force "warn".
	loadTimes := map[string]time.Duration{}
	loadBad := map[string]bool{}
	var bestLoad time.Duration
	for _, e := range res.Config.Engines {
		var ds []time.Duration
		for _, l := range res.Loads {
			if l.Engine != e {
				continue
			}
			if l.Failed {
				loadBad[e] = true
				continue
			}
			ds = append(ds, l.Elapsed)
		}
		g := geomean(ds)
		loadTimes[e] = g
		if g > 0 && (bestLoad == 0 || g < bestLoad) {
			bestLoad = g
		}
	}
	for _, e := range res.Config.Engines {
		out[e]["Load"] = classifyFactor(loadTimes[e], bestLoad, loadBad[e])
	}

	// Query categories.
	type agg struct {
		times []time.Duration
		bad   bool
		seen  bool
	}
	for _, cat := range cats[1:] {
		inCat := map[string]bool{}
		for _, q := range cat.Queries {
			inCat[q] = true
		}
		perEngine := map[string]*agg{}
		for _, e := range res.Config.Engines {
			perEngine[e] = &agg{}
		}
		for _, m := range res.Micro {
			if m.Mode != ModeInteractive || !inCat[m.Query] {
				continue
			}
			a := perEngine[m.Engine]
			if a == nil {
				continue
			}
			a.seen = true
			if m.TimedOut || m.Failed {
				a.bad = true
				continue
			}
			a.times = append(a.times, m.Elapsed)
		}
		var best time.Duration
		for _, a := range perEngine {
			if g := geomean(a.times); g > 0 && (best == 0 || g < best) {
				best = g
			}
		}
		for _, e := range res.Config.Engines {
			a := perEngine[e]
			switch {
			case !a.seen:
				out[e][cat.Name] = VerdictUnrun
			case a.bad:
				out[e][cat.Name] = VerdictWarn
			default:
				out[e][cat.Name] = classifyFactor(geomean(a.times), best, false)
			}
		}
	}
	return out
}

func classifyFactor(g, best time.Duration, bad bool) Verdict {
	switch {
	case bad:
		return VerdictWarn
	case g == 0 || best == 0:
		return VerdictUnrun
	case float64(g) <= goodFactor*float64(best):
		return VerdictGood
	case float64(g) >= warnFactor*float64(best):
		return VerdictWarn
	default:
		return VerdictMid
	}
}

// ReportTable4 renders the summary matrix (Table 4): "ok" is the
// paper's check mark, "warn" its warning sign.
func ReportTable4(res *Results, w io.Writer) {
	sum := Summary(res)
	cats := Table4Categories()
	fmt.Fprintln(w, "Table 4: evaluation summary (ok = best or near-best; warn = low end or execution problems)")
	fmt.Fprintf(w, "%-12s", "engine")
	for _, c := range cats {
		fmt.Fprintf(w, " %-15s", c.Name)
	}
	fmt.Fprintln(w)
	for _, e := range res.Config.Engines {
		fmt.Fprintf(w, "%-12s", e)
		for _, c := range cats {
			fmt.Fprintf(w, " %-15s", string(sum[e][c.Name]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// reports names every table and figure in paper order; "all" renders
// them in this order.
var reports = []struct {
	name string
	fn   func(*Results, io.Writer)
}{
	{"table1", func(_ *Results, w io.Writer) { ReportTable1(w) }},
	{"table2", func(_ *Results, w io.Writer) { ReportTable2(w) }},
	{"table3", ReportTable3},
	{"fig1", ReportFig1Space},
	{"fig1c", ReportFig1cTimeouts},
	{"fig2", ReportFig2Complex},
	{"fig3a", ReportFig3Load},
	{"fig3b", ReportFig3Insert},
	{"fig3c", ReportFig3UpdateDelete},
	{"fig4a", ReportFig4Select},
	{"fig4b", ReportFig4ByID},
	{"fig4c", ReportFig4cIndex},
	{"fig5a", ReportFig5Local},
	{"fig5b", ReportFig5Degree},
	{"fig6", ReportFig6BFS},
	{"fig7", ReportFig7SP},
	{"fig7cd", ReportFig7Overall},
	{"table4", ReportTable4},
	{"shapes", func(res *Results, w io.Writer) { ReportShapes(res, w) }},
}

// ReportAll renders every table and figure in paper order, skipping
// Figure 2 when the run has no complex cells.
func ReportAll(res *Results, w io.Writer) {
	for _, r := range reports {
		if r.name != "fig2" || len(res.Complex) > 0 {
			r.fn(res, w)
		}
	}
}

// Report renders one named report; see ReportNames.
func Report(res *Results, name string, w io.Writer) error {
	if name == "all" {
		ReportAll(res, w)
		return nil
	}
	for _, r := range reports {
		if r.name == name {
			r.fn(res, w)
			return nil
		}
	}
	return fmt.Errorf("harness: unknown report %q (known: %v)", name, ReportNames())
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
