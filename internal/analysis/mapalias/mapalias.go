// Package mapalias forbids mutating slices that alias a memory-mapped
// region. mmapfile maps artifacts PROT_READ: a store through an
// aliased slice is a SIGSEGV at best, and an append that fits the
// mapped capacity silently writes into the next reader's bytes. Code
// that needs to grow or edit mapped data must copy it out first; the
// rare deliberate exception (a copying fallback that proved the alias
// is heap-backed) documents itself with //lint:gdb-allow.
//
// The check is flow-insensitive and per-function: an identifier
// assigned — anywhere in the function — from a mapped source
// (mmapfile.Int32s, (*mmapfile.File).Data, the datasets artifact
// section readers) or from a slice of one is treated as mapped
// everywhere in that function. Reassigning the same variable to a
// heap slice later does not unmark it; use a fresh variable for heap
// copies.
package mapalias

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// scope is the set of packages that touch mapped regions: mmapfile
// creates them, datasets decodes artifact sections out of them, core
// adopts the aliased CSR arrays.
var scope = analysis.Scope{
	"internal/mmapfile",
	"internal/datasets",
	"internal/core",
}

// Analyzer applies the rule over scope.
var Analyzer = &analysis.Analyzer{
	Name: "mapalias",
	Doc:  "forbids append/copy/store mutations on slices derived from a read-only memory mapping",
	Run:  run,
}

// mappedSources lists the functions whose results alias (or may
// alias) a mapped region, by package-path suffix.
var mappedSources = map[string]map[string]bool{
	"internal/mmapfile": {"Int32s": true, "Data": true},
	// The artifact section readers hand out subslices of the mapped
	// file (String is exempt: it aliases too, but strings are
	// immutable — the compiler already forbids writing through one).
	"internal/datasets": {"section": true, "int32Section": true},
}

func run(pass *analysis.Pass) error {
	if !scope.Match(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFunc(pass, fd.Body)
			return true
		})
	}
	return nil
}

// checkFunc marks the function's mapped-derived identifiers to a fixed
// point, then reports every mutation through one of them.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	mapped := map[types.Object]bool{}
	isMapped := func(e ast.Expr) bool { return mappedExpr(pass, mapped, e) }

	// Marking pass: repeat until no new identifier is marked, so a
	// chain like a := Int32s(...); b := a[1:]; c := b converges
	// regardless of declaration order.
	for changed := true; changed; {
		changed = false
		mark := func(lhs ast.Expr) {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil && !mapped[obj] {
				mapped[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					// v, ok := mmapfile.Int32s(b): the alias is the
					// first result.
					if isMapped(st.Rhs[0]) {
						mark(st.Lhs[0])
					}
					return true
				}
				for i := range st.Rhs {
					if i < len(st.Lhs) && isMapped(st.Rhs[i]) {
						mark(st.Lhs[i])
					}
				}
			case *ast.ValueSpec:
				for i := range st.Values {
					if i < len(st.Names) && isMapped(st.Values[i]) {
						mark(st.Names[i])
					}
				}
			}
			return true
		})
	}

	// Reporting pass.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if ok && isMapped(ix.X) {
					pass.Reportf(ix.Pos(), "write through a slice aliasing a read-only mapping; copy the data out before mutating")
				}
			}
		case *ast.CallExpr:
			fn, ok := st.Fun.(*ast.Ident)
			if !ok || len(st.Args) == 0 {
				return true
			}
			if b, isB := pass.Info.Uses[fn].(*types.Builtin); !isB || (b.Name() != "append" && b.Name() != "copy") {
				return true
			}
			if !isMapped(st.Args[0]) {
				return true
			}
			switch fn.Name {
			case "append":
				pass.Reportf(st.Pos(), "append to a slice aliasing a read-only mapping; an in-place grow writes into the mapped file — copy first")
			case "copy":
				pass.Reportf(st.Pos(), "copy into a slice aliasing a read-only mapping; mapped regions are not writable")
			}
		}
		return true
	})
}

// mappedExpr reports whether e evaluates to a mapped-derived slice:
// a marked identifier, a slice of one, or a direct mapped-source call.
func mappedExpr(pass *analysis.Pass, mapped map[types.Object]bool, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[x]
		if obj == nil {
			obj = pass.Info.Defs[x]
		}
		return obj != nil && mapped[obj]
	case *ast.ParenExpr:
		return mappedExpr(pass, mapped, x.X)
	case *ast.SliceExpr:
		return mappedExpr(pass, mapped, x.X)
	case *ast.CallExpr:
		return mappedSourceCall(pass, x)
	}
	return false
}

// mappedSourceCall reports whether call's static callee is one of the
// known alias-returning functions.
func mappedSourceCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	for suffix, names := range mappedSources {
		if !names[fn.Name()] {
			continue
		}
		if p := fn.Pkg().Path(); p == suffix || strings.HasSuffix(p, "/"+suffix) {
			return true
		}
	}
	return false
}
