// Package fsyncrename enforces the publishSnapshot contract on
// temp-file-then-rename sequences: before a rename publishes a file
// under its final name, the data must be forced to disk with an
// error-checked Sync, and any pre-rename Close must have its error
// checked. Rename-without-fsync can publish a name whose bytes are
// lost on crash — a torn artifact that then poisons the
// content-addressed cache; an ignored Sync or Close error publishes a
// file the kernel already told us is bad.
//
// Two families of publish calls are recognized. os.Rename /
// (*os.File).Sync / (*os.File).Close are checked in every package.
// The durability layer never touches os directly — it writes through
// the fsim VFS seam — so inside vfsScope the fsim.FS.Rename /
// fsim.File.Sync / fsim.File.Close interface methods count as the same
// events (fsim itself is the substrate, not a publisher, and stays out
// of scope).
//
// The analysis is per function body: a rename is satisfied by a
// checked Sync call earlier in the same body (nested function literals
// are scanned separately — a Sync inside a callback does not vouch for
// a rename outside it).
package fsyncrename

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// vfsScope is where VFS-mediated publishes are checked in
// addition to direct os ones: the LSM store and its write-ahead log
// publish truncated segments through fsim.FS, and a rename there
// without a durable prefix is exactly the torn-artifact crash the
// fault matrix exists to catch.
var vfsScope = analysis.Scope{
	"internal/lsm",
	"internal/lsm/wal",
}

// Analyzer applies the os-level checks to every package and the VFS
// ones over vfsScope.
var Analyzer = &analysis.Analyzer{
	Name: "fsyncrename",
	Doc:  "flags rename publishes (os or fsim VFS) without an error-checked fsync, or with ignored Sync/Close errors",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	vfs := vfsScope.Match(pass.Pkg.Path())
	for _, f := range pass.Files {
		// Visit every function body — declarations and literals —
		// each as its own scope.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body, vfs)
				}
			case *ast.FuncLit:
				checkBody(pass, n.Body, vfs)
			}
			return true
		})
	}
	return nil
}

// fileCall is one Sync/Close/Rename event in a body, in source order.
type fileCall struct {
	pos     token.Pos
	checked bool // false when the call is a bare expression statement
}

// checkBody scans one function body (excluding nested literals) and
// reports each rename that is not preceded by a checked Sync, plus
// any ignored Sync/Close error ahead of a rename.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, vfs bool) {
	bare := bareCalls(body)

	var syncs, closes []fileCall
	var renames []*ast.CallExpr
	inspectShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := analysis.FuncOf(pass.Info, call)
		if fn == nil {
			return
		}
		switch {
		case fn.FullName() == "(*os.File).Sync",
			vfs && isFsimMethod(fn, "Sync"):
			syncs = append(syncs, fileCall{call.Pos(), !bare[call]})
		case fn.FullName() == "(*os.File).Close",
			vfs && isFsimMethod(fn, "Close"):
			closes = append(closes, fileCall{call.Pos(), !bare[call]})
		case analysis.IsPkgFunc(fn, "os", "Rename"),
			vfs && isFsimMethod(fn, "Rename"):
			renames = append(renames, call)
		}
	})

	for _, r := range renames {
		var checkedSync, uncheckedSync bool
		for _, s := range syncs {
			if s.pos < r.Pos() {
				if s.checked {
					checkedSync = true
				} else {
					uncheckedSync = true
				}
			}
		}
		switch {
		case checkedSync:
			// Satisfied; still flag sloppy closes below.
		case uncheckedSync:
			pass.Reportf(r.Pos(), "rename publishes a file whose Sync error was ignored; check the fsync result before renaming")
		default:
			pass.Reportf(r.Pos(), "rename without a preceding fsync: call Sync (and check its error) before publishing the file")
		}
		for _, c := range closes {
			if c.pos < r.Pos() && !c.checked {
				pass.Reportf(c.pos, "Close error ignored before rename; a failed close can publish truncated bytes")
			}
		}
	}
}

// isFsimMethod reports whether fn is a method named name declared in
// the fsim VFS package — the FS/File interface methods (and their Mem
// and OS implementations) that mirror the os publish primitives. The
// path is suffix-matched so analyzer testdata stubs placed under
// .../testdata/src/internal/lsm/fsim count as the real seam.
func isFsimMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "internal/lsm/fsim" || strings.HasSuffix(p, "/internal/lsm/fsim")
}

// bareCalls maps each call that is a bare expression statement —
// i.e. its error result, if any, is discarded.
func bareCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	inspectShallow(body, func(n ast.Node) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
			out[call] = true
		}
	})
	return out
}

// inspectShallow walks body without descending into nested function
// literals, whose bodies form their own publish scopes.
func inspectShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
