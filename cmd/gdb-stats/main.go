// Command gdb-stats regenerates Table 3: the structural
// characteristics of every benchmark dataset, next to the values the
// paper reports for the full-size originals.
//
// Usage:
//
//	gdb-stats [-datasets yeast,mico,...] [-scale 0.01] [-dataset-cache DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/datasets"
	"repro/internal/harness"
)

// options holds every gdb-stats flag, declared through defineFlags so
// the doc-sync test can enumerate them.
type options struct {
	list         string
	scale        float64
	datasetCache string
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.list, "datasets", strings.Join(datasets.Names(), ","), "datasets to measure")
	fs.Float64Var(&o.scale, "scale", 0.002, "scale factor (1.0 = paper sizes)")
	fs.StringVar(&o.datasetCache, "dataset-cache", "", "reuse dataset snapshot artifacts from this directory (populated on miss)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	res := &harness.Results{
		Config: harness.Config{Scale: o.scale},
		Stats:  map[string]datasets.Table3Row{},
	}
	for _, name := range strings.Split(o.list, ",") {
		name = strings.TrimSpace(name)
		if datasets.ByName(name) == nil {
			fmt.Fprintf(os.Stderr, "gdb-stats: unknown dataset %q (known: %v)\n", name, datasets.Names())
			os.Exit(1)
		}
		// The analytics need only the CSR snapshot: a warm cache hit
		// maps just the columnar sections, skipping graph materialization
		// entirely.
		c, _, err := datasets.AcquireCSR(name, o.scale, datasets.AcquireOptions{
			CacheDir: o.datasetCache,
			Mmap:     true,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gdb-stats: %v\n", err)
			os.Exit(1)
		}
		res.Stats[name] = datasets.StatsCSR(c, 1)
	}
	harness.ReportTable3(res, os.Stdout)
}
