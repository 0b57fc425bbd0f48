package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/engines"
)

// metricDef is one entry of BENCHMARK.json's end_to_end list; per_layer
// entries are the same without the bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// engineNames are the nine configurations of the study, in the
// registry's listing order.
var engineNames = engines.Names()

// endToEnd is what a user of the system sees, on every workload. The
// bound is the relative worsening that counts as a regression. Every
// timed metric has the widest bound the contract allows: the 2-core
// reference box is a share of a busy host (README.md, "Noise"). There
// is no metric per engine here: an engine is a layer, and its
// throughput is engines.ops_per_s.<engine> in perLayer.
var endToEnd = buildEndToEnd()

func buildEndToEnd() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", lower, 0.25},
		{"ops_per_s", "1/s", higher, 0.25},
	}
	return append(defs,
		metricDef{"lat_p50_us", "us", lower, 0.25},
		metricDef{"lat_tail_us", "us", lower, 0.25},
		metricDef{"peak_rss_mb", "mb", lower, 0.25},
		metricDef{"space_amp", "ratio", lower, 0.02},
	)
}

// perLayer names one module per prefix; README.md states which
// end-to-end metric each should move and on which workload. A metric
// whose layer is idle on a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(prefix, unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: prefix + n, Unit: unit, Better: better})
		}
	}
	add("harness.", "s", lower, "wall_s", "acquire_s", "load_s", "micro_s", "indexed_s", "complex_s", "overhead_s", "export_s")
	add("harness.", "count", higher, "cells", "shapes_pass")
	add("harness.", "count", lower, "timeouts", "failed", "shapes_fail")
	add("datasets.", "s", lower, "generate_s", "store_s", "open_heap_s", "open_mmap_s", "stats_s")
	add("datasets.", "bytes", lower, "artifact_bytes")
	add("graphson.", "s", lower, "write_s", "read_s")
	add("graphson.", "bytes", lower, "bytes")
	add("engines.ops_per_s.", "1/s", higher, engineNames...)
	add("engines.busy_s.", "s", lower, engineNames...)
	add("engines.p50_us.", "us", lower, engineNames...)
	add("engines.p99_us.", "us", lower, engineNames...)
	add("engines.space_amp.", "ratio", lower, engineNames...)
	add("engines.allocs_per_op.", "1/op", lower, engineNames...)
	add("engines.calls_per_op.", "1/op", lower, engineNames...)
	add("gremlin.", "s", lower, "self_s")
	add("gremlin.", "ratio", lower, "self_share", "rows_per_result")
	add("gremlin.", "us", lower, "plan_us")
	add("btree.", "ns", lower, "get_ns", "seek_ns", "ascend_prefix_ns", "put_ns", "delete_ns", "bulk_build_ns")
	add("btree.", "1/op", lower, "get_allocs")
	add("lsm.", "ns", lower, "get_ns", "put_ns", "scan_prefix_ns")
	add("lsm.", "ratio", lower, "space_amp")
	add("lsm.", "count", lower, "flushes", "compactions")
	add("lsm.", "ratio", higher, "cache_hit_ratio")
	add("wal.", "ns", lower, "put_ns")
	add("wal.", "ratio", lower, "syncs_per_kop", "write_amp")
	add("wal.", "s", lower, "recovery_s")
	add("wal.", "count", lower, "records_replayed")
	add("rel.", "ns", lower, "insert_ns", "get_ns", "select_eq_ns", "indexed_join_ns")
	add("rel.", "ratio", higher, "seek_share")
	add("pagefile.", "ns", lower, "record_ns", "alloc_ns", "heap_read_ns")
	add("bitmap.", "ns", lower, "add_ns", "contains_ns", "and_ns", "iterate_ns")
	add("serve.", "ratio", higher, "scaling_1to2")
	add("serve.", "count", lower, "errors")
	add("go.", "ratio", lower, "gc_cpu_share")
	add("go.", "mb", lower, "alloc_mb")
	add("", "ratio", lower, "trace_overhead")
	return defs
}

// deterministic lists metrics that must be bit-equal between two runs
// of one commit with one seed; -compare reports a difference as a
// regression whatever its size.
func deterministic(name string) bool {
	return name == "space_amp" || name == "harness.cells" ||
		strings.HasPrefix(name, "engines.calls_per_op.") || strings.HasPrefix(name, "engines.space_amp.")
}

// sample is one reported number: a median over the run's rounds and
// their relative spread (see relSpread).
type sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
}

// report collects what one run measured and every way its outputs
// were wrong.
type report struct {
	values    map[string]sample
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func newReport() *report { return &report{values: map[string]sample{}} }

// set records a metric; a second value for one name is a bug in the
// benchmark, since every metric is emitted exactly once.
func (r *report) set(name string, value, spread float64) {
	if _, dup := r.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	r.values[name] = sample{Value: value, Spread: spread}
}

// atFullSpeed converts every timed metric from the clock's provisional
// unit to seconds at the box's full speed, k being clock.fullSpeed's
// factor: times take it, rates its inverse, and counts, sizes and ratios
// of two times nothing.
func (r *report) atFullSpeed(k float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			s, ok := r.values[d.Name]
			if !ok {
				continue
			}
			switch d.Unit {
			case "s", "us", "ns":
				s.Value *= k
			case "1/s":
				s.Value /= k
			}
			r.values[d.Name] = s
		}
	}
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, one "name value unit" line per metric of
// defs, and the result object the driver reads from the last line.
func (r *report) print(w io.Writer, workload string, seed int64, defs []metricDef) error {
	fmt.Fprintf(w, "# workload %s seed %d\n", workload, seed)
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "# INCORRECT:", p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		s, ok := r.values[d.Name]
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, s.Value)
		}
		if d.Bound > 0 && (!ok || s.Value == 0) {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%s %.6g %s ±%.1f%%\n", d.Name, s.Value, d.Unit, 100*s.Spread)
		out.Metrics[d.Name] = jsonMetric{s.Value, d.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// --- ledger and -compare ---

// ledger is the -out file: every workload's metrics, end-to-end and
// per-layer merged from their separate invocations.
type ledger map[string]map[string]sample

func readLedger(path string) (ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

func mergeLedger(path, workload string, r *report, defs []metricDef) error {
	l, err := readLedger(path)
	if os.IsNotExist(err) {
		l, err = ledger{}, nil
	}
	if err != nil {
		return err
	}
	if l[workload] == nil {
		l[workload] = map[string]sample{}
	}
	for _, d := range defs {
		s := r.values[d.Name]
		s.Unit = d.Unit
		l[workload][d.Name] = s
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareLedgers applies each end-to-end metric's bound per (metric,
// workload) to two ledgers, a the baseline and b the candidate, and
// prints one row per workload. A pair is unresolved when either run's
// round spread exceeds the bound: the benchmark cannot tell a change
// that small from its own noise.
func compareLedgers(pathA, pathB string, w io.Writer) (int, error) {
	a, err := readLedger(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return 2, err
	}
	bad := 0
	for _, wl := range workloads {
		ma, mb := a[wl.name], b[wl.name]
		if ma == nil || mb == nil {
			fmt.Fprintf(w, "%-6s missing from a ledger\n", wl.name)
			bad++
			continue
		}
		var ok int
		var regressed, unresolved []string
		bounded := map[string]bool{}
		for _, d := range endToEnd {
			bounded[d.Name] = true
			sa, sb := ma[d.Name], mb[d.Name]
			worse := (sb.Value - sa.Value) / sa.Value
			if d.Better == higher {
				worse = -worse
			}
			detail := fmt.Sprintf("%s %.4g→%.4g (%+.1f%% worse, bound %.0f%%, spread %.1f%%/%.1f%%)",
				d.Name, sa.Value, sb.Value, 100*worse, 100*d.Bound, 100*sa.Spread, 100*sb.Spread)
			switch {
			case deterministic(d.Name) && sa.Value != sb.Value:
				regressed = append(regressed, detail+" [must be bit-equal]")
			case math.Max(sa.Spread, sb.Spread) > d.Bound:
				unresolved = append(unresolved, detail)
			case worse > d.Bound:
				regressed = append(regressed, detail)
			default:
				ok++
			}
		}
		for name, sa := range ma {
			if sb, both := mb[name]; both && deterministic(name) && sa.Value != sb.Value && !bounded[name] {
				regressed = append(regressed, fmt.Sprintf("%s %v→%v [must be bit-equal]", name, sa.Value, sb.Value))
			}
		}
		sort.Strings(regressed)
		fmt.Fprintf(w, "%-6s ok %d  regressed %d  unresolved %d\n", wl.name, ok, len(regressed), len(unresolved))
		for _, s := range regressed {
			fmt.Fprintln(w, "       regressed: ", s)
		}
		for _, s := range unresolved {
			fmt.Fprintln(w, "       unresolved:", s)
		}
		bad += len(regressed) + len(unresolved)
	}
	if bad > 0 {
		return 1, nil
	}
	return 0, nil
}

// --- small statistics ---

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// relSpread is the distance between the quartiles over the median —
// between the extremes when there are fewer than four values — and 0
// for fewer than two.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / m
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
