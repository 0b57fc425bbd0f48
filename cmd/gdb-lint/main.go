// Command gdb-lint runs the repository's invariant analyzers
// (internal/analysis: detmap, wallclock, seedrand, goroutinejoin,
// fsyncrename, mapalias) over the packages matching the given
// patterns. It is the machine check behind docs/INVARIANTS.md: no
// map-ordered bytes in encoders, no wall clock or global rand in
// result paths, no untracked goroutines in the harness, par and serve
// layers, no rename without fsync, no mutation through slices that alias a
// read-only memory mapping.
//
// Usage:
//
//	gdb-lint [flags] [packages]
//
//	-json   emit diagnostics as a JSON array instead of file:line text
//	-list   list the analyzers and their one-line docs, then exit
//
// With no package patterns, ./... is assumed. The exit status is 0
// when the tree is clean, 1 when any diagnostic is reported, and 2
// when loading or analysis itself fails.
//
// Example:
//
//	gdb-lint ./...
//	gdb-lint -json ./internal/harness
//
// Findings are suppressed, with a mandatory reason, by the directive
//
//	//lint:gdb-allow <analyzer> <reason>
//
// on the flagged line or the line above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/detmap"
	"repro/internal/analysis/fsyncrename"
	"repro/internal/analysis/goroutinejoin"
	"repro/internal/analysis/mapalias"
	"repro/internal/analysis/seedrand"
	"repro/internal/analysis/wallclock"
)

// options holds every gdb-lint flag. Flags are declared through
// defineFlags so the doc-sync test can enumerate them and verify each
// one is documented in README/docs.
type options struct {
	jsonOut bool
	list    bool
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.BoolVar(&o.jsonOut, "json", false, "emit diagnostics as JSON")
	fs.BoolVar(&o.list, "list", false, "list analyzers and exit")
	return o
}

// suite is the full analyzer set, in the order they are listed and run.
var suite = []*analysis.Analyzer{
	detmap.Analyzer,
	wallclock.Analyzer,
	seedrand.Analyzer,
	goroutinejoin.Analyzer,
	fsyncrename.Analyzer,
	mapalias.Analyzer,
}

func main() {
	fs := flag.NewFlagSet("gdb-lint", flag.ExitOnError)
	opts := defineFlags(fs)
	fs.Parse(os.Args[1:])

	if opts.list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdb-lint:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdb-lint:", err)
		os.Exit(2)
	}

	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "gdb-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
