// Command gdb-bench runs the micro-benchmark evaluation and prints the
// paper's tables and figures.
//
// Run gdb-bench -h for the flags. README.md describes every one of
// them, and the docsync test fails when a flag is missing there.
//
// Examples:
//
//	gdb-bench -report fig6 -datasets frb-s,frb-m -scale 0.005
//	gdb-bench -engines neo-1.9,sqlg -datasets ldbc -report fig2
//	gdb-bench -checkpoint run.jsonl -resume -export-json results.json
//	gdb-bench -checkpoint run.jsonl -status
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/harness"
)

// options holds every gdb-bench flag. Flags are declared through
// defineFlags so the doc-sync test can enumerate them and verify each
// one is documented in README/docs.
type options struct {
	engines     string
	datasets    string
	scale       float64
	timeout     time.Duration
	batch       int
	seed        int64
	workers     int
	cellWorkers int
	cacheDir    string
	verbose     bool
	checkpoint  string
	resume      bool
	status      bool
	frozenClock bool
	report      string
	exportJSON  string
	exportCSV   string
	importJSON  string
	list        bool
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.engines, "engines", "", "comma-separated engines (default all)")
	fs.StringVar(&o.datasets, "datasets", "frb-s,frb-o,frb-m,frb-l", "comma-separated datasets")
	fs.Float64Var(&o.scale, "scale", 0.002, "dataset scale factor (1.0 = paper sizes)")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Second, "per-query timeout")
	fs.IntVar(&o.batch, "batch", 10, "batch mode size")
	fs.Int64Var(&o.seed, "seed", 1, "random seed for parameter selection")
	fs.IntVar(&o.workers, "workers", runtime.NumCPU(), "parallel evaluation workers")
	fs.IntVar(&o.cellWorkers, "cell-workers", 1, "parallel batch iterations per cell (non-mutating queries)")
	fs.StringVar(&o.cacheDir, "dataset-cache", "", "reuse dataset snapshot artifacts from this directory (populated on miss)")
	fs.BoolVar(&o.verbose, "v", false, "print per-cell progress to stderr")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "stream completed grid cells to this JSONL file")
	fs.BoolVar(&o.resume, "resume", false, "replay a compatible -checkpoint file and run only the missing cells")
	fs.BoolVar(&o.status, "status", false, "print the -checkpoint file's progress and exit without executing")
	fs.BoolVar(&o.frozenClock, "frozen-clock", false, "record all durations as zero for byte-deterministic exports (testing/CI)")
	fs.StringVar(&o.report, "report", "all", "report to print ("+strings.Join(harness.ReportNames(), ", ")+")")
	fs.StringVar(&o.exportJSON, "export-json", "", "also write raw results as JSON to this file")
	fs.StringVar(&o.exportCSV, "export-csv", "", "also write raw results as CSV to this file")
	fs.StringVar(&o.importJSON, "import-json", "", "render reports from a previous -export-json run instead of executing")
	fs.BoolVar(&o.list, "list", false, "list engines, datasets and reports")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	if o.list {
		fmt.Println("engines: ", strings.Join(engines.Names(), ", "))
		fmt.Println("datasets:", strings.Join(datasets.Names(), ", "))
		fmt.Println("reports: ", strings.Join(harness.ReportNames(), ", "))
		return
	}

	// -status inspects a checkpoint and never executes: a multi-hour
	// run's progress is readable from any shell in milliseconds.
	if o.status {
		if o.checkpoint == "" {
			fatal(errors.New("-status requires -checkpoint FILE"))
		}
		st, err := harness.ReadStatus(o.checkpoint)
		if err != nil {
			fatal(err)
		}
		st.Render(os.Stdout)
		return
	}

	// Validate every name up front: a typo in -report, -engines or
	// -datasets must surface now, not after the grid has run for hours.
	if !harness.ValidReport(o.report) {
		fatal(fmt.Errorf("unknown report %q (known: %s)", o.report, strings.Join(harness.ReportNames(), ", ")))
	}
	for _, e := range splitList(o.engines) {
		if engines.Constructor(e) == nil {
			fatal(fmt.Errorf("unknown engine %q (known: %s)", e, strings.Join(engines.Names(), ", ")))
		}
	}
	for _, d := range splitList(o.datasets) {
		if datasets.ByName(d) == nil {
			fatal(fmt.Errorf("unknown dataset %q (known: %s)", d, strings.Join(datasets.Names(), ", ")))
		}
	}
	if err := datasets.CheckScale(o.scale); err != nil {
		fatal(fmt.Errorf("-scale: %w", err))
	}

	cfg := harness.Config{
		Grid: harness.Grid{
			Engines:     splitList(o.engines),
			Datasets:    splitList(o.datasets),
			Scale:       o.scale,
			Timeout:     o.timeout,
			BatchSize:   o.batch,
			Seed:        o.seed,
			FrozenClock: o.frozenClock,
			CellWorkers: o.cellWorkers,
		},
		Exec: harness.Exec{
			Workers:         o.workers,
			CheckpointPath:  o.checkpoint,
			Resume:          o.resume,
			DatasetCacheDir: o.cacheDir,
		},
	}
	if o.verbose {
		cfg.Progress = os.Stderr
	}

	// Static reports need no run, and Table 3 needs only the datasets.
	switch {
	case o.report == "table1":
		harness.ReportTable1(os.Stdout)
		return
	case o.report == "table2":
		harness.ReportTable2(os.Stdout)
		return
	case o.report == "table3" && o.importJSON == "":
		res := &harness.Results{Config: cfg, Stats: map[string]datasets.Table3Row{}}
		for _, name := range cfg.Datasets {
			// The analytics need only the CSR snapshot: a warm cache hit
			// maps just the columnar sections, skipping graph
			// materialization entirely.
			c, _, err := datasets.AcquireCSR(name, cfg.Scale, datasets.AcquireOptions{CacheDir: cfg.DatasetCacheDir, Mmap: true})
			if err != nil {
				fatal(err)
			}
			res.Stats[name] = datasets.StatsCSR(c, 1)
		}
		harness.ReportTable3(res, os.Stdout)
		return
	}

	var res *harness.Results
	if o.importJSON != "" {
		f, err := os.Open(o.importJSON)
		if err != nil {
			fatal(err)
		}
		res, err = harness.ImportJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		runner, err := harness.NewRunner(cfg)
		if err != nil {
			fatal(err)
		}
		res, err = runner.Run()
		if err != nil {
			fatal(err)
		}
	}
	if err := harness.Report(res, o.report, os.Stdout); err != nil {
		fatal(err)
	}
	if o.exportJSON != "" {
		if err := writeFile(o.exportJSON, func(f *os.File) error { return harness.ExportJSON(res, f) }); err != nil {
			fatal(err)
		}
	}
	if o.exportCSV != "" {
		if err := writeFile(o.exportCSV, func(f *os.File) error { return harness.ExportCSV(res, f) }); err != nil {
			fatal(err)
		}
	}
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gdb-bench:", err)
	os.Exit(1)
}
