// Command gdb-gen generates a benchmark dataset as a GraphSON file —
// the common input format of the suite (Table 2's Q1 loads it).
//
// Usage:
//
//	gdb-gen -dataset ldbc -scale 0.01 -out ldbc.json
//
// With -out "-" (the default) the document is written to stdout.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/datasets"
	"repro/internal/graphson"
)

// options holds every gdb-gen flag, declared through defineFlags so
// the doc-sync test can enumerate them.
type options struct {
	dataset string
	scale   float64
	out     string
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.dataset, "dataset", "ldbc", "dataset name (see gdb-bench -list)")
	fs.Float64Var(&o.scale, "scale", 0.002, "scale factor (1.0 = paper sizes)")
	fs.StringVar(&o.out, "out", "-", "output file (\"-\" = stdout)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	spec := datasets.ByName(o.dataset)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "gdb-gen: unknown dataset %q (known: %v)\n", o.dataset, datasets.Names())
		os.Exit(1)
	}
	if err := datasets.CheckScale(o.scale); err != nil {
		fmt.Fprintf(os.Stderr, "gdb-gen: -scale: %v\n", err)
		os.Exit(1)
	}
	g := spec.Generate(o.scale)

	w := os.Stdout
	if o.out != "-" {
		f, err := os.Create(o.out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdb-gen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := graphson.Write(bw, g); err != nil {
		fmt.Fprintln(os.Stderr, "gdb-gen:", err)
		os.Exit(1)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "gdb-gen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gdb-gen: %s at scale %g: %d vertices, %d edges\n",
		o.dataset, o.scale, g.NumVertices(), g.NumEdges())
}
