// Command gdb-serve runs the sustained-traffic serving mode: one
// engine, one dataset, N concurrent clients issuing a seeded mixed
// workload, reporting throughput and latency quantiles as JSON — the
// contended regime the paper's quiesced per-query measurements cannot
// express (see METHODOLOGY.md, "Sustained-traffic serving").
//
// Run gdb-serve -h for the flags (-engine is required). README.md
// describes every one of them, and the docsync test fails when a flag
// is missing there.
//
// Examples:
//
//	gdb-serve -engine neo-1.9 -dataset mico -clients 8 -duration 5s
//	gdb-serve -engine sqlg -rate 2000 -mix read=50,traverse=20,insert=20,update=10
//	gdb-serve -engine sparksee -ops 1000 -oplog ops.jsonl
//	gdb-serve -engine titan-1.0 -lsm-dir walstore -mix read=20,insert=50,update=30
//	gdb-serve -engine titan-1.0 -lsm-dir walstore -lsm-audit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/obs"
	"repro/internal/serve"
)

// options holds every gdb-serve flag. Flags are declared through
// defineFlags so the doc-sync test can enumerate them and verify each
// one is documented in README/docs.
type options struct {
	engine       string
	dataset      string
	scale        float64
	clients      int
	duration     time.Duration
	ops          int
	rate         float64
	mix          string
	seed         int64
	oplog        string
	datasetCache string
	lsmDir       string
	lsmAudit     bool
	verbose      bool
	profiles     *obs.Profiles
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.engine, "engine", "", "engine configuration to serve (required)")
	fs.StringVar(&o.dataset, "dataset", "mico", "dataset name")
	fs.Float64Var(&o.scale, "scale", 0.002, "dataset scale factor (1.0 = paper sizes)")
	fs.IntVar(&o.clients, "clients", 8, "concurrent client count")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "run length when -ops is 0")
	fs.IntVar(&o.ops, "ops", 0, "operations per client; 0 = run for -duration")
	fs.Float64Var(&o.rate, "rate", 0, "total target arrival rate in ops/sec; 0 = closed loop")
	fs.StringVar(&o.mix, "mix", serve.DefaultMix.String(), "workload mix, e.g. read=60,traverse=20,insert=10,update=10")
	fs.Int64Var(&o.seed, "seed", 1, "random seed for op streams and arrival times")
	fs.StringVar(&o.oplog, "oplog", "", "write the intended-operation log (JSON lines) to this file")
	fs.StringVar(&o.datasetCache, "dataset-cache", "", "reuse dataset snapshot artifacts from this directory (populated on miss)")
	fs.StringVar(&o.lsmDir, "lsm-dir", "", "durable mode: root the engine's LSM store at this directory (WAL + crash recovery; titan engines only)")
	fs.BoolVar(&o.lsmAudit, "lsm-audit", false, "recover the store at -lsm-dir, print recovery counters and an integrity audit as JSON, and exit")
	fs.BoolVar(&o.verbose, "v", false, "print progress to stderr")
	o.profiles = obs.DefineProfiles(fs)
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := o.profiles.Run(func() error { return run(o) }); err != nil {
		fmt.Fprintln(os.Stderr, "gdb-serve:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.engine == "" {
		return errors.New("-engine is required (known: " + strings.Join(engines.Names(), ", ") + ")")
	}
	if engines.Constructor(o.engine) == nil {
		return fmt.Errorf("unknown engine %q (known: %s)", o.engine, strings.Join(engines.Names(), ", "))
	}
	if o.lsmAudit {
		if o.lsmDir == "" {
			return errors.New("-lsm-audit requires -lsm-dir")
		}
		return runAudit(o)
	}
	if o.lsmDir != "" && !engines.SupportsDurable(o.engine) {
		return fmt.Errorf("-lsm-dir: engine %q has no durable mode (titan engines only)", o.engine)
	}
	if datasets.ByName(o.dataset) == nil {
		return fmt.Errorf("unknown dataset %q (known: %s)", o.dataset, strings.Join(datasets.Names(), ", "))
	}
	mix, err := serve.ParseMix(o.mix)
	if err != nil {
		return err
	}

	progress := func(format string, args ...any) {}
	if o.verbose {
		progress = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	progress("acquiring dataset %s at scale %g", o.dataset, o.scale)
	g, _, err := datasets.AcquireWith(o.dataset, o.scale, datasets.AcquireOptions{CacheDir: o.datasetCache, Mmap: true})
	if err != nil {
		return err
	}
	var e core.Engine
	if o.lsmDir != "" {
		de, rst, derr := engines.OpenDurable(o.engine, o.lsmDir)
		if derr != nil {
			return derr
		}
		progress("durable store at %s: replayed %d records (%d B truncated) in %v",
			o.lsmDir, rst.Records, rst.BytesTruncated, time.Duration(rst.WallNS))
		e = de
	} else {
		ve, verr := engines.New(o.engine)
		if verr != nil {
			return verr
		}
		e = ve
	}
	defer e.Close()
	progress("loading %d vertices / %d edges into %s", g.NumVertices(), g.NumEdges(), o.engine)
	res, err := e.BulkLoad(g)
	if err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}

	cfg := serve.Config{
		Engine:     e,
		EngineName: o.engine,
		Dataset:    o.dataset,
		Base:       res.VertexIDs,
		Clients:    o.clients,
		Ops:        o.ops,
		Rate:       o.rate,
		Mix:        mix,
		Seed:       o.seed,
	}
	if o.ops == 0 {
		cfg.Duration = o.duration
	}
	if o.oplog != "" {
		f, err := os.Create(o.oplog)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.OpLog = f
	}

	progress("serving: %d clients, mix %s, loop %s", o.clients, mix, loopName(o.rate))
	rep, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	return rep.Encode(os.Stdout)
}

// runAudit recovers the durable store at -lsm-dir and prints the
// recovery counters plus the integrity audit as JSON. No dataset is
// loaded and nothing is served — this is the post-crash check the
// smoke test runs after SIGKILLing a durable serving run.
func runAudit(o *options) error {
	rep, err := engines.DurableAudit(o.engine, o.lsmDir)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.AuditOk {
		return fmt.Errorf("audit found %d problems", len(rep.Problems))
	}
	return nil
}

func loopName(rate float64) string {
	if rate > 0 {
		return "open"
	}
	return "closed"
}
