// Command bench is the repository's one benchmark: five workloads
// (grid, read, write, load, serve) over the public surfaces of the
// harness, the workload catalogue, the nine engines, the dataset
// cache, GraphSON and the serving mode. One process runs one workload
// once, untraced (end-to-end metrics) or traced (per-layer metrics),
// checks the outputs, and prints every metric as "name value unit"
// followed by one JSON object on the last line. README.md explains the
// workloads, the metrics and which layer should move which number.
//
// Usage:
//
//	bench -workload read -seed 1 -seconds 20 -trace 0 [-size smoke] [-out ledger.json]
//	bench -compare a.json b.json
//	bench -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	size     string
	workdir  string
	out      string
	compare  bool
	manifest bool
	heater   bool // this process is the heater
	heat     bool // start one; main sets it, the tests, whose binary cannot be one, do not
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: grid, read, write, load or serve")
	fs.Int64Var(&o.seed, "seed", committedSeed, "seed of the generated schedule (held-out seed for validating claims: 20180917)")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed section")
	fs.IntVar(&o.trace, "trace", 0, "1 wraps every engine in the span recorder and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.size, "size", "full", "input sizes: full (the committed benchmark) or smoke (seconds-long, for tests)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files (dataset cache, durable store, trace.json)")
	fs.StringVar(&o.out, "out", "", "merge this run's metrics into the named JSON ledger, the input of -compare")
	fs.BoolVar(&o.compare, "compare", false, "compare two ledgers given as arguments, applying each metric's bound per workload")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	fs.BoolVar(&o.heater, "heater", false, "internal: keep a core awake until standard input closes (see heater.go)")
	return o
}

// committedSeed is the seed reference numbers are recorded with;
// heldOutSeed is never used while a change is written and validates a
// claim afterwards (choosing-metrics guide, section 6).
const (
	committedSeed = 1
	heldOutSeed   = 20180917
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	o := defineFlags(fs)
	fs.Parse(os.Args[1:])
	o.heat = true
	code, err := run(o, fs.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run executes one invocation and returns the process exit code: 0 for
// a correct run, 1 for a correctness failure or a regression, 2 for
// anything that kept the benchmark from measuring.
func run(o *options, args []string, stdout io.Writer) (int, error) {
	switch {
	case o.heater:
		heat()
		return 0, nil
	case o.manifest:
		return 0, writeManifest(stdout, o.seconds)
	case o.compare:
		if len(args) != 2 {
			return 2, errors.New("-compare needs two ledger files")
		}
		return compareLedgers(args[0], args[1], stdout)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q (known: %v)", o.workload, workloadNames())
	}
	sz, ok := sizes[o.size]
	if !ok {
		return 2, fmt.Errorf("unknown size %q (known: full, smoke)", o.size)
	}
	if o.seconds <= 0 {
		return 2, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-"+w.name+"-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)

	env := &env{
		seed:   o.seed,
		budget: time.Duration(o.seconds * float64(time.Second)),
		size:   sz,
		dir:    dir,
		rep:    newReport(),
	}
	if o.trace != 0 {
		env.tr = newTracer()
	}
	if w.singleThreaded && o.heat {
		stop, err := startHeater()
		if err != nil {
			return 2, err
		}
		defer stop()
	}
	env.clk = startClock(env.tr == nil)
	if err := w.run(env); err != nil {
		return 2, fmt.Errorf("%s: %w", w.name, err)
	}
	env.processMetrics()
	if env.tr == nil {
		env.rep.set("setup_s", env.setupS(), relSpread(env.setups))
	}
	env.rep.atFullSpeed(env.clk.fullSpeed())
	env.rep.notef("%s", env.clk)
	if env.tr == nil {
		// The per-layer list holds these; the untraced run has them on
		// its calibrated clock, for the reader.
		var per []string
		for _, en := range engineNames {
			per = append(per, fmt.Sprintf("%s %.4g", en, env.rep.values["engines.ops_per_s."+en].Value))
		}
		env.rep.notef("operations per second by engine: %s", strings.Join(per, ", "))
	}

	defs := endToEnd
	if env.tr != nil {
		defs = perLayer
		path := filepath.Join(o.workdir, "trace-"+w.name+".json")
		if err := env.tr.writeJSON(path); err != nil {
			return 2, err
		}
		fmt.Fprintf(stdout, "# trace: %d spans kept of %d recorded, written to %s\n", len(env.tr.spans), env.tr.recorded, path)
	}
	if err := env.rep.print(stdout, w.name, o.seed, defs); err != nil {
		return 2, err
	}
	if o.out != "" {
		if err := mergeLedger(o.out, w.name, env.rep, defs); err != nil {
			return 2, err
		}
	}
	if len(env.rep.problems) > 0 {
		return 1, fmt.Errorf("%s: %d correctness problems", w.name, len(env.rep.problems))
	}
	return 0, nil
}

// manifest is the schema of BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []layerDef      `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerDef is a metricDef without the bound per-layer metrics lack.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest(seconds float64) manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: int(seconds),
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	return m
}

func writeManifest(w io.Writer, seconds float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest(seconds))
}
