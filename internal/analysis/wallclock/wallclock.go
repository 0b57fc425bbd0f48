// Package wallclock forbids reading the wall clock in packages that
// produce exported results. A time.Now captured into a stream header,
// checkpoint, snapshot payload or GraphSON document makes two
// otherwise-identical runs differ byte-for-byte, breaking the
// fingerprint/byte-identity guarantee. Result-producing code must take
// its clock through the harness' injectable now/since fields (frozen
// in tests) or carry timestamps in from the caller; genuinely
// operational uses — the injectable clock's own default, stale-temp
// sweeps — document themselves with a //lint:gdb-allow directive.
package wallclock

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// scope is the set of result-producing packages: harness writes
// streams and checkpoints, datasets writes snapshot artifacts,
// graphson renders exports, serve times every operation through its
// Runner's injectable clock so the executor's tests run it on a fake
// one.
var scope = analysis.Scope{
	"internal/harness",
	"internal/datasets",
	"internal/graphson",
	"internal/serve",
}

// Analyzer applies the rule over scope.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now/time.Since in result-producing packages outside the frozen-clock abstraction",
	Run:  run,
}

// banned are the time package's wall-clock reads. time.Sleep and timer
// construction are deliberately absent: they consume durations, they
// do not observe the clock.
var banned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func run(pass *analysis.Pass) error {
	if !scope.Match(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
				return true
			}
			pass.Reportf(id.Pos(), "time.%s in result-producing package %s; route the clock through the injectable now/since abstraction", fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil
}
