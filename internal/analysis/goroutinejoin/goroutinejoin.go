// Package goroutinejoin flags `go func(){...}()` launches in the
// concurrency-heavy layers (internal/harness, internal/par,
// internal/serve) whose goroutine is neither tracked by a sync.WaitGroup
// nor select-guarded by a channel receive. An untracked, unguarded
// goroutine is exactly the shape behind the PR 5 shutdown races: it
// outlives Close, touches freed connections, or leaks per-request. A
// goroutine passes if its body calls (*sync.WaitGroup).Done (the
// launcher joins it) or contains a select with a receive arm (a
// done/stop channel can end it); launches that are structurally joined
// some other way — e.g. a result always drained from a channel — take a
// //lint:gdb-allow directive with the explanation.
package goroutinejoin

import (
	"go/ast"

	"repro/internal/analysis"
)

// scope covers the layers where goroutine lifetime bugs translate
// into shutdown races and leaked connections.
var scope = analysis.Scope{
	"internal/harness",
	"internal/par",
	"internal/serve",
}

// Analyzer applies the rule over scope.
var Analyzer = &analysis.Analyzer{
	Name: "goroutinejoin",
	Doc:  "flags go-func launches with no WaitGroup tracking and no select guard",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !scope.Match(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				// `go s.loop()` delegates lifetime to a named method,
				// which the analyzer cannot see into; named methods
				// are reviewable at their definition.
				return true
			}
			if !joined(pass, lit.Body) {
				pass.Reportf(gs.Pos(), "goroutine is neither WaitGroup-tracked nor select-guarded; join it or guard it with a done channel")
			}
			return true
		})
	}
	return nil
}

// joined reports whether the goroutine body carries a recognized
// lifetime discipline: a (*sync.WaitGroup).Done call, or a select with
// a receive arm.
func joined(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.FuncOf(pass.Info, n); fn != nil && fn.FullName() == "(*sync.WaitGroup).Done" {
				found = true
			}
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if isReceive(cc.Comm) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isReceive reports whether a select comm clause is a channel receive
// (`<-ch`, `v := <-ch`, `v, ok := <-ch`).
func isReceive(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		u, ok := s.Rhs[0].(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	}
	return false
}
