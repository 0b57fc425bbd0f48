package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/detmap"
	"repro/internal/analysis/fsyncrename"
	"repro/internal/analysis/goroutinejoin"
	"repro/internal/analysis/mapalias"
	"repro/internal/analysis/seedrand"
	"repro/internal/analysis/wallclock"
	"repro/internal/datasets"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest pins BENCHMARK.json to the metric and workload tables in
// this package and to the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want, float64(onDisk.RunSeconds)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run . -manifest -seconds %d > ../BENCHMARK.json`", onDisk.RunSeconds)
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(onDisk.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(onDisk.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range onDisk.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range onDisk.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range onDisk.PerLayer {
		check(d.Name)
	}
}

// TestSmoke runs every workload at the smoke size, untraced and
// traced, and checks the output contract: every metric of the run's
// list printed exactly once, the result object on the last line, exit
// code 0, and the two runs merged into a ledger -compare can read.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.json")
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			o := &options{workload: w.name, seed: heldOutSeed, seconds: 0.5, trace: trace, size: "smoke", workdir: dir, out: ledgerPath}
			code, err := run(o, nil, &out)
			if code != 0 || err != nil {
				t.Fatalf("%s trace=%d: exit %d: %v\n%s", w.name, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]int{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) >= 3 && !strings.HasPrefix(l, "#") {
					printed[f[0]]++
				}
			}
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v", w.name, trace, err)
			}
			if res.Correct == nil || !*res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) || len(printed) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics in the result, %d printed, want %d", w.name, trace, len(res.Metrics), len(printed), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || printed[d.Name] != 1 {
					t.Errorf("%s trace=%d: metric %s: in result %v, unit %q (want %q), printed %d times", w.name, trace, d.Name, ok, m.Unit, d.Unit, printed[d.Name])
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: traced run left no trace file: %v", w.name, err)
				}
				// What must stay flat by construction (README.md).
				for name, m := range res.Metrics {
					idle := strings.HasPrefix(name, "wal.") && w.name != "serve" ||
						strings.HasPrefix(name, "harness.") && w.name != "grid" ||
						name == "gremlin.self_s" && w.name == "load"
					if idle && m.Value != 0 {
						t.Errorf("%s: %s = %v, its layer is idle on this workload", w.name, name, m.Value)
					}
				}
			}
		}
	}
	// Half-second smoke runs are too noisy to resolve anything, but a
	// ledger can never have regressed against itself.
	var out bytes.Buffer
	if _, err := compareLedgers(ledgerPath, ledgerPath, &out); err != nil || strings.Count(out.String(), "regressed 0") != len(workloads) {
		t.Errorf("a ledger regressed against itself (%v):\n%s", err, out.String())
	}
}

// TestCompare checks the three verdicts on hand-made ledgers.
func TestCompare(t *testing.T) {
	base := ledger{}
	for _, w := range workloads {
		base[w.name] = map[string]sample{}
		for _, d := range endToEnd {
			base[w.name][d.Name] = sample{Value: 100, Unit: d.Unit, Spread: 0.01}
		}
	}
	write := func(name string, edit func(l ledger)) string {
		l := ledger{}
		for w, ms := range base {
			l[w] = map[string]sample{}
			for k, v := range ms {
				l[w][k] = v
			}
		}
		edit(l)
		b, _ := json.Marshal(l)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(ledger) {})
	b := write("b.json", func(l ledger) {
		l["read"]["ops_per_s"] = sample{Value: 70, Spread: 0.01}       // higher is better: 30% worse
		l["write"]["lat_p50_us"] = sample{Value: 105, Spread: 0.01}    // within the bound
		l["serve"]["lat_tail_us"] = sample{Value: 100, Spread: 0.5}    // too noisy to tell
		l["load"]["space_amp"] = sample{Value: 100.0001, Spread: 0.01} // must be bit-equal
	})
	var out bytes.Buffer
	code, err := compareLedgers(a, b, &out)
	if err != nil || code != 1 {
		t.Fatalf("exit %d, %v", code, err)
	}
	for _, want := range []string{
		"read   ok 5  regressed 1  unresolved 0",
		"write  ok 6  regressed 0  unresolved 0",
		"serve  ok 5  regressed 0  unresolved 1",
		"load   ok 5  regressed 1  unresolved 0",
		"grid   ok 6  regressed 0  unresolved 0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing row %q in:\n%s", want, out.String())
		}
	}
}

// TestWriteStream checks the seeded draw: distinct victims, totals that
// follow from the operations, and a loud failure on a dataset too
// small for the requested stream.
func TestWriteStream(t *testing.T) {
	g, _, err := datasets.AcquireWith("frb-s", 0.005, datasets.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := writeStreamFor(g, 7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ops) != 20*s.perCycle || len(s.want) != 20 {
		t.Fatalf("%d operations, %d totals for 20 cycles of %d", len(s.ops), len(s.want), s.perCycle)
	}
	deletedV, deletedE := map[int]bool{}, map[int]bool{}
	for _, op := range s.ops {
		switch op.q.Num {
		case 18:
			if deletedV[op.v] {
				t.Errorf("vertex %d deleted twice", op.v)
			}
			deletedV[op.v] = true
		case 19:
			if deletedE[op.e] {
				t.Errorf("edge %d deleted twice", op.e)
			}
			deletedE[op.e] = true
		}
	}
	for _, op := range s.ops {
		touchesDeleted := deletedV[op.v] && op.q.Num != 18 || deletedV[op.v2] && (op.q.Num == 3 || op.q.Num == 4 || op.q.Num == 7)
		if e := g.EdgeL[op.e]; touchesDeleted || (op.q.Num == 6 || op.q.Num == 17 || op.q.Num == 19 || op.q.Num == 21) && (deletedV[e.Src] || deletedV[e.Dst]) {
			t.Errorf("%s touches a deleted vertex or one of its edges", op.q.Name)
		}
	}
	again, _ := writeStreamFor(g, 7, 20)
	if again.want[19] != s.want[19] || again.ops[100].v != s.ops[100].v {
		t.Error("the same seed drew a different stream")
	}
	if _, err := writeStreamFor(g, 7, g.NumVertices()); err == nil {
		t.Error("a stream larger than the dataset did not fail")
	}
}

// TestSourceClean holds bench/ to the repository's own standards:
// gofmt, go vet and the gdb-lint invariant analyzers (seeded rand only).
func TestSourceClean(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		formatted, err := format.Source(src)
		if err != nil || !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-clean (%v)", f, err)
		}
	}
	if out, err := exec.Command("go", "vet", ".").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
	pkgs, err := analysis.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{
		detmap.Analyzer, wallclock.Analyzer, seedrand.Analyzer,
		goroutinejoin.Analyzer, fsyncrename.Analyzer, mapalias.Analyzer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("gdb-lint: %v", d)
	}
}
