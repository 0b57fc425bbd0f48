package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parsePkg wraps one source string as a loaded package; the fake
// analyzers below need no type information.
func parsePkg(t *testing.T, src string) *Pkg {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &Pkg{Path: "example/p", Dir: ".", Fset: fset, Files: []*ast.File{f}}
}

// declFlagger reports every top-level var declaration — a trivial
// analyzer for exercising the suppression machinery.
var declFlagger = &Analyzer{
	Name: "declflag",
	Doc:  "flags var declarations (test analyzer)",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					pass.Reportf(gd.Pos(), "var declared")
				}
			}
		}
		return nil
	},
}

func TestDirectiveSuppressesSameAndNextLine(t *testing.T) {
	pkg := parsePkg(t, `package p

var a int // want: flagged, no directive

//lint:gdb-allow declflag next-line form
var b int

var c int //lint:gdb-allow declflag trailing form
`)
	diags, err := Run([]*Pkg{pkg}, []*Analyzer{declFlagger})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Line != 3 {
		t.Errorf("surviving diagnostic on line %d, want 3", diags[0].Line)
	}
	if !strings.Contains(diags[0].Message, "suppress with a reason: //lint:gdb-allow declflag") {
		t.Errorf("diagnostic does not surface the escape hatch: %q", diags[0].Message)
	}
}

func TestDirectiveProblemsAreReported(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:gdb-allow declflag
var a int

//lint:gdb-allow nosuch because reasons
var b int
`)
	diags, err := Run([]*Pkg{pkg}, []*Analyzer{declFlagger})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+":"+d.Message)
	}
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "missing its reason") {
		t.Errorf("reason-less directive not reported:\n%s", joined)
	}
	if !strings.Contains(joined, `unknown analyzer "nosuch"`) {
		t.Errorf("unknown-analyzer directive not reported:\n%s", joined)
	}
	// The reason-less directive must NOT suppress: var a is still
	// flagged (var b is too — its directive names the wrong analyzer).
	var flagged int
	for _, d := range diags {
		if d.Analyzer == "declflag" {
			flagged++
		}
	}
	if flagged != 2 {
		t.Errorf("got %d declflag diagnostics, want 2 (broken directives must not suppress):\n%s", flagged, joined)
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	pkg := parsePkg(t, `package p

var b int
var a int
`)
	reversed := &Analyzer{
		Name: "rev",
		Doc:  "reports in reverse order (test analyzer)",
		Run: func(pass *Pass) error {
			f := pass.Files[0]
			for i := len(f.Decls) - 1; i >= 0; i-- {
				pass.Reportf(f.Decls[i].Pos(), "decl")
			}
			return nil
		},
	}
	diags, err := Run([]*Pkg{pkg}, []*Analyzer{reversed})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Line >= diags[1].Line {
		t.Fatalf("diagnostics not sorted by position: %v", diags)
	}
}

func TestScopeMatch(t *testing.T) {
	s := Scope{"internal/harness", "internal/serve"}
	for path, want := range map[string]bool{
		"repro/internal/harness": true,
		"internal/harness":       true,
		"repro/internal/analysis/testdata/src/internal/harness": true,
		"repro/internal/harnessx":                               false,
		"repro/internal/datasets":                               false,
		"harness":                                               false,
	} {
		if got := s.Match(path); got != want {
			t.Errorf("Match(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "x", File: "f.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "f.go:3:7: [x] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestLoadTypesAPackage(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/loadable")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
		t.Fatalf("package not fully loaded: %+v", p)
	}
	if !strings.HasSuffix(p.Path, "testdata/src/loadable") {
		t.Errorf("unexpected import path %q", p.Path)
	}
	// Type information must resolve through export data: the testdata
	// package uses fmt, so at least one use must be a fmt object.
	found := false
	for _, obj := range p.Info.Uses {
		if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no fmt uses resolved; export-data importing is broken")
	}
}

func TestLoadRejectsBrokenPatterns(t *testing.T) {
	if _, err := Load(".", "./testdata/src/nonexistent"); err == nil {
		t.Fatal("Load succeeded on a nonexistent package")
	}
}
