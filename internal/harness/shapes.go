package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// shape is one qualitative finding of the paper's Section 6 that the
// reproduction is expected to exhibit: not an absolute number, but an
// ordering, a factor, or a failure mode. EXPERIMENTS.md is the prose
// record; this checker is the executable version.
type shape struct {
	id    string
	paper string // the claim, as the paper states it
	check func(v *view) (ok bool, detail string)
	// needsEngines and needsDatasets list what the check requires; it
	// is skipped when the run lacks them.
	needsEngines  []string
	needsDatasets []string
}

// catTime is an engine's interactive geomean over a query set across
// all datasets; ok=false when it has no such cell or any failed.
func (v *view) catTime(engine string, queries ...string) (time.Duration, bool) {
	p := v.queryPerf(engine, queries)
	return p.g, p.seen && !p.failed
}

func (v *view) spaceTotal(engine string) int64 {
	var n int64
	for _, l := range v.Loads {
		if l.Engine == engine {
			n += l.Space.Total
		}
	}
	return n
}

func (v *view) problems(engine string) int {
	n := 0
	for _, m := range v.Micro {
		if m.Engine == engine && (m.TimedOut || m.Failed) {
			n++
		}
	}
	return n
}

// fasterThan asserts a ≤ b (with slack factor).
func fasterThan(a, b time.Duration, slack float64) bool {
	return float64(a) <= slack*float64(b)
}

// shapes is the executable findings checklist.
var shapes = []shape{
	{
		id:    "load-blaze-slowest",
		paper: "BlazeGraph's per-statement index updates made it up to 3 orders of magnitude slower to load (§6.2)",
		check: func(v *view) (bool, string) {
			blaze := v.loadPerf("blaze").g
			worstOther := time.Duration(0)
			for _, e := range v.Config.Engines {
				if e == "blaze" {
					continue
				}
				if t := v.loadPerf(e).g; t > worstOther {
					worstOther = t
				}
			}
			return blaze > worstOther, fmt.Sprintf("blaze=%v worst-other=%v", blaze, worstOther)
		},
		needsEngines: []string{"blaze"},
	},
	{
		id:    "space-blaze-3x",
		paper: "BlazeGraph requires on average three times the space of any other system (§6.2)",
		check: func(v *view) (bool, string) {
			blaze := v.spaceTotal("blaze")
			var worstOther int64
			for _, e := range v.Config.Engines {
				if e == "blaze" {
					continue
				}
				if s := v.spaceTotal(e); s > worstOther {
					worstOther = s
				}
			}
			return blaze >= 2*worstOther, fmt.Sprintf("blaze=%dMB worst-other=%dMB", blaze>>20, worstOther>>20)
		},
		needsEngines: []string{"blaze"},
	},
	{
		id:    "neo-completes-everything",
		paper: "Neo4j is the only system which successfully completed all tests on all datasets (§6.4)",
		check: func(v *view) (bool, string) {
			p19, p30 := v.problems("neo-1.9"), v.problems("neo-3.0")
			return p19 == 0 && p30 == 0, fmt.Sprintf("neo-1.9=%d neo-3.0=%d problems", p19, p30)
		},
		needsEngines: []string{"neo-1.9", "neo-3.0"},
	},
	{
		id:    "sparksee-fastest-counts",
		paper: "In counting nodes and edges, Sparksee has the best performance (§6.4)",
		check: func(v *view) (bool, string) {
			sp, ok := v.catTime("sparksee", "Q8", "Q9")
			if !ok {
				return false, "sparksee failed counts"
			}
			for _, e := range v.Config.Engines {
				if e == "sparksee" {
					continue
				}
				if t, ok := v.catTime(e, "Q8", "Q9"); ok && !fasterThan(sp, t, 1.5) {
					return false, fmt.Sprintf("sparksee=%v but %s=%v", sp, e, t)
				}
			}
			return true, fmt.Sprintf("sparksee=%v", sp)
		},
		needsEngines: []string{"sparksee"},
	},
	{
		id:    "sqlg-fastest-label-search",
		paper: "Q11–Q13 are some of the few queries where the RDBMS-backed Sqlg works best, an order of magnitude faster (§6.4)",
		check: func(v *view) (bool, string) {
			sq, ok := v.catTime("sqlg", "Q11", "Q12", "Q13")
			if !ok {
				return false, "sqlg failed search"
			}
			beats := 0
			for _, e := range v.Config.Engines {
				if e == "sqlg" {
					continue
				}
				if t, ok := v.catTime(e, "Q11", "Q12", "Q13"); ok && fasterThan(sq, t, 1.0) {
					beats++
				}
			}
			return beats >= len(v.Config.Engines)-2,
				fmt.Sprintf("sqlg=%v beats %d/%d engines", sq, beats, len(v.Config.Engines)-1)
		},
		needsEngines: []string{"sqlg"},
	},
	{
		id:    "sqlg-slow-unfiltered-traversal",
		paper: "Sqlg shows the expected low performance for traversal operations, via relational joins (§6.5)",
		check: func(v *view) (bool, string) {
			sq, ok := v.catTime("sqlg", "Q22", "Q23")
			if !ok {
				return false, "sqlg failed traversals"
			}
			slower := 0
			natives := []string{"neo-1.9", "neo-3.0", "orient"}
			for _, e := range natives {
				if t, ok := v.catTime(e, "Q22", "Q23"); ok && fasterThan(t, sq, 1.0) {
					slower++
				}
			}
			return slower == len(natives), fmt.Sprintf("sqlg=%v, slower than %d/%d natives", sq, slower, len(natives))
		},
		needsEngines: []string{"sqlg", "neo-1.9", "neo-3.0", "orient"},
	},
	{
		id:    "sqlg-fast-labelled-hop",
		paper: "Sqlg becomes much faster when a filter is posed on the label to traverse (§6.4)",
		check: func(v *view) (bool, string) {
			lab, ok1 := v.catTime("sqlg", "Q24")
			unlab, ok2 := v.catTime("sqlg", "Q22", "Q23")
			if !ok1 || !ok2 {
				return false, "sqlg failed hops"
			}
			return fasterThan(lab, unlab, 1.0), fmt.Sprintf("labelled=%v unfiltered=%v", lab, unlab)
		},
		needsEngines: []string{"sqlg"},
	},
	{
		id:    "sparksee-fails-degree-freebase",
		paper: "Sparksee cannot complete the degree-filter queries on the Freebase samples — memory exhaustion at the paper's scale; OOM or timeout here depending on which budget trips first (§6.4)",
		check: func(v *view) (bool, string) {
			fails := 0
			for _, m := range v.Micro {
				if m.Engine == "sparksee" && strings.HasPrefix(m.Dataset, "frb") &&
					(m.Query == "Q28" || m.Query == "Q29" || m.Query == "Q30") &&
					m.Mode == ModeInteractive && (m.Failed || m.TimedOut) {
					fails++
				}
			}
			return fails > 0, fmt.Sprintf("%d degree-filter non-completions on frb-*", fails)
		},
		needsEngines:  []string{"sparksee"},
		needsDatasets: []string{"frb-m"},
	},
	{
		id:    "titan-deletes-faster-than-inserts",
		paper: "Titan is slower in create operations but faster in deletions, due to the tombstone mechanism (§6.5)",
		check: func(v *view) (bool, string) {
			ins, ok1 := v.catTime("titan-1.0", "Q3", "Q4")
			del, ok2 := v.catTime("titan-1.0", "Q19")
			if !ok1 || !ok2 {
				return false, "titan failed CUD"
			}
			return fasterThan(del, ins, 1.0), fmt.Sprintf("insert=%v delete=%v", ins, del)
		},
		needsEngines: []string{"titan-1.0"},
	},
	{
		id:    "neo30-cud-regression",
		paper: "Neo4j v3.0 is more than an order of magnitude slower than its previous version on CUD (§6.4)",
		check: func(v *view) (bool, string) {
			old, ok1 := v.catTime("neo-1.9", "Q2", "Q3", "Q5")
			new30, ok2 := v.catTime("neo-3.0", "Q2", "Q3", "Q5")
			if !ok1 || !ok2 {
				return false, "neo failed CUD"
			}
			return new30 > old, fmt.Sprintf("v1.9=%v v3.0=%v", old, new30)
		},
		needsEngines: []string{"neo-1.9", "neo-3.0"},
	},
	{
		id:    "native-beats-hybrid-on-bfs",
		paper: "For traversal queries like BFS visits, the hybrid systems under-perform significantly (§6.5)",
		check: func(v *view) (bool, string) {
			neo, ok := v.catTime("neo-1.9", "Q32(d=3)")
			if !ok {
				return false, "neo failed BFS"
			}
			worse := 0
			hybrids := []string{"sqlg", "blaze"}
			for _, e := range hybrids {
				t, ok := v.catTime(e, "Q32(d=3)")
				// A hybrid under-performs when it failed outright or
				// is slower than the native engine.
				if !ok || fasterThan(neo, t, 1.0) {
					worse++
				}
			}
			return worse == len(hybrids), fmt.Sprintf("neo=%v, worse hybrids %d/%d", neo, worse, len(hybrids))
		},
		needsEngines: []string{"neo-1.9", "sqlg", "blaze"},
	},
	{
		id:    "id-lookup-fast-everywhere",
		paper: "Search by ID is much faster than other selections in all systems (§6.4)",
		check: func(v *view) (bool, string) {
			for _, e := range v.Config.Engines {
				byID, ok1 := v.catTime(e, "Q14", "Q15")
				scan, ok2 := v.catTime(e, "Q11")
				if ok1 && ok2 && !fasterThan(byID, scan, 1.0) {
					return false, fmt.Sprintf("%s: byID=%v scan=%v", e, byID, scan)
				}
			}
			return true, "id lookups beat property scans on every engine"
		},
	},
	{
		id:    "index-speeds-q11",
		paper: "With indexes, Q11 improves by 2 to 5 orders of magnitude for Neo4j 1.9, OrientDB, Titan, and up to 600x for Sqlg (§6.4)",
		check: func(v *view) (bool, string) {
			improved := 0
			var checked int
			for _, e := range []string{"neo-1.9", "orient", "titan-0.5", "titan-1.0", "sqlg"} {
				for _, d := range v.Config.Datasets {
					plain, ok1 := v.cells[key{e, d, "Q11", ModeInteractive}]
					idx, ok2 := v.cells[key{e, d, "Q11(idx)", ModeInteractive}]
					if !ok1 || !ok2 || plain.TimedOut || idx.TimedOut {
						continue
					}
					checked++
					if idx.Elapsed < plain.Elapsed {
						improved++
					}
				}
			}
			return checked > 0 && improved*3 >= checked*2,
				fmt.Sprintf("index improved %d/%d engine-dataset cells", improved, checked)
		},
	},
	{
		// The paper's absolute ranking ("among the best") relied on
		// competitors paying JVM+disk costs that in-memory
		// substrates do not reproduce; the measurable part of the
		// claim is that ArangoDB's CUD latency is flat in dataset
		// size because writes are acknowledged from RAM.
		id:    "arango-cud-size-independent",
		paper: "With the only exception of BlazeGraph, all the databases are almost unaffected by the size of the dataset for insertions; for ArangoDB operations are registered in RAM (§6.4)",
		check: func(v *view) (bool, string) {
			small, okS := v.cells[key{"arango", v.Config.Datasets[0], "Q2", ModeInteractive}]
			large, okL := v.cells[key{"arango", v.Config.Datasets[len(v.Config.Datasets)-1], "Q2", ModeInteractive}]
			if !okS || !okL || small.Failed || large.Failed {
				return false, "arango failed Q2"
			}
			return fasterThan(large.Elapsed, small.Elapsed, 10),
				fmt.Sprintf("Q2 %v on %s vs %v on %s", small.Elapsed, v.Config.Datasets[0], large.Elapsed, v.Config.Datasets[len(v.Config.Datasets)-1])
		},
		needsEngines: []string{"arango"},
	},
	{
		id:    "batch-amortizes-cud-setup",
		paper: "For CUD operations the batch takes less than 10 times one iteration (per-op setup dominates); for retrievals it is ~10x (§6.4)",
		check: func(v *view) (bool, string) {
			okCells, total := 0, 0
			for _, e := range v.Config.Engines {
				for _, d := range v.Config.Datasets {
					one, ok1 := v.cells[key{e, d, "Q2", ModeInteractive}]
					bat, ok2 := v.cells[key{e, d, "Q2", ModeBatch}]
					if !ok1 || !ok2 || one.TimedOut || bat.TimedOut || one.Elapsed == 0 {
						continue
					}
					total++
					if bat.Elapsed < time.Duration(float64(one.Elapsed)*float64(v.Config.BatchSize)*1.5) {
						okCells++
					}
				}
			}
			return total > 0 && okCells*3 >= total*2, fmt.Sprintf("%d/%d cells amortized", okCells, total)
		},
	},
}

// reportShapes runs every applicable shape check against the results
// and prints a pass/fail table.
func reportShapes(v *view, w io.Writer) {
	fmt.Fprintln(w, "Shape fidelity: paper findings vs this run")
	for _, s := range shapes {
		skip := false
		for _, e := range s.needsEngines {
			skip = skip || !slices.Contains(v.Config.Engines, e)
		}
		for _, d := range s.needsDatasets {
			skip = skip || !slices.Contains(v.Config.Datasets, d)
		}
		if skip {
			fmt.Fprintf(w, "  SKIP %-32s (engines/datasets not in run)\n", s.id)
			continue
		}
		ok, detail := s.check(v)
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-32s %s\n", status, s.id, detail)
		fmt.Fprintf(w, "       paper: %s\n", s.paper)
	}
	fmt.Fprintln(w)
}
