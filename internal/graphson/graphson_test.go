package graphson

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/core"
)

const sample = `{
  "mode": "NORMAL",
  "vertices": [
    {"_id": "a", "_type": "vertex", "name": "ann", "age": 31},
    {"_id": "b", "_type": "vertex", "name": "bob", "score": 1.5, "active": true},
    {"_id": 3,   "_type": "vertex"}
  ],
  "edges": [
    {"_id": 0, "_type": "edge", "_outV": "a", "_inV": "b", "_label": "knows", "since": 2010},
    {"_id": 1, "_type": "edge", "_outV": "b", "_inV": 3, "_label": "likes"}
  ]
}`

func TestReadSample(t *testing.T) {
	g, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.VProps[0]["name"] != core.S("ann") || g.VProps[0]["age"] != core.I(31) {
		t.Fatalf("vertex 0 props = %v", g.VProps[0])
	}
	if g.VProps[1]["score"] != core.F(1.5) || g.VProps[1]["active"] != core.B(true) {
		t.Fatalf("vertex 1 props = %v", g.VProps[1])
	}
	if g.VProps[2] != nil {
		t.Fatalf("vertex 2 should have nil props: %v", g.VProps[2])
	}
	e := g.EdgeL[0]
	if e.Src != 0 || e.Dst != 1 || e.Label != "knows" || e.Props["since"] != core.I(2010) {
		t.Fatalf("edge 0 = %+v", e)
	}
	if g.EdgeL[1].Props != nil {
		t.Fatalf("edge 1 should have nil props")
	}
}

func TestReadEdgesBeforeVertices(t *testing.T) {
	doc := `{"edges":[{"_outV":1,"_inV":2,"_label":"x"}],
	         "vertices":[{"_id":1},{"_id":2}]}`
	g, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.EdgeL[0].Src != 0 || g.EdgeL[0].Dst != 1 {
		t.Fatalf("graph = %+v", g)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"not an object":     `[1,2]`,
		"vertex without id": `{"vertices":[{"name":"x"}]}`,
		"dangling outV":     `{"vertices":[{"_id":1}],"edges":[{"_outV":9,"_inV":1}]}`,
		"dangling inV":      `{"vertices":[{"_id":1}],"edges":[{"_outV":1,"_inV":9}]}`,
		"duplicate id":      `{"vertices":[{"_id":1},{"_id":1}]}`,
		"truncated":         `{"vertices":[{"_id":1}`,
		"no closing brace":  `{"vertices":[{"_id":1}]`,
		"data after":        `{"vertices":[{"_id":1}]} garbage`,
		"array prop":        `{"vertices":[{"_id":1,"bad":[1,2]}]}`,
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestNumbersIntVsFloat(t *testing.T) {
	doc := `{"vertices":[{"_id":1,"i":42,"f":4.5,"e":1e3,"big":9007199254740993}]}`
	g, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	p := g.VProps[0]
	if p["i"].Kind() != core.KindInt {
		t.Errorf("42 parsed as %v", p["i"].Kind())
	}
	if p["f"].Kind() != core.KindFloat || p["e"].Kind() != core.KindFloat {
		t.Errorf("floats parsed as %v/%v", p["f"].Kind(), p["e"].Kind())
	}
	if p["big"].Kind() != core.KindInt || p["big"].Int() != 9007199254740993 {
		t.Errorf("large int lost precision: %v", p["big"])
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := core.NewGraph(3, 2)
	g.AddVertex(core.Props{"name": core.S("ann"), "age": core.I(30)})
	g.AddVertex(core.Props{"f": core.F(2.5)})
	g.AddVertex(nil)
	g.AddEdge(0, 1, "knows", core.Props{"w": core.I(1)})
	g.AddEdge(2, 0, "likes", nil)

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 3 || g2.NumEdges() != 2 {
		t.Fatalf("round trip sizes: %d, %d", g2.NumVertices(), g2.NumEdges())
	}
	if g2.VProps[0]["name"] != core.S("ann") || g2.VProps[0]["age"] != core.I(30) {
		t.Fatalf("vertex 0 = %v", g2.VProps[0])
	}
	if g2.EdgeL[0].Label != "knows" || g2.EdgeL[0].Props["w"] != core.I(1) {
		t.Fatalf("edge 0 = %+v", g2.EdgeL[0])
	}
	if g2.EdgeL[1].Src != 2 || g2.EdgeL[1].Dst != 0 {
		t.Fatalf("edge 1 endpoints = %d,%d", g2.EdgeL[1].Src, g2.EdgeL[1].Dst)
	}
}

// TestQuickRoundTrip generates random graphs and checks Write∘Read
// preserves structure and properties.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(30)
		ne := rng.Intn(60)
		g := core.NewGraph(nv, ne)
		for i := 0; i < nv; i++ {
			var p core.Props
			if rng.Intn(2) == 0 {
				p = core.Props{"n": core.I(int64(rng.Intn(100)))}
			}
			g.AddVertex(p)
		}
		for i := 0; i < ne; i++ {
			g.AddEdge(rng.Intn(nv), rng.Intn(nv), "l"+string(rune('a'+rng.Intn(3))), nil)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		g2, err := Read(&buf)
		if err != nil || g2.NumVertices() != nv || g2.NumEdges() != ne {
			return false
		}
		for i := range g.EdgeL {
			if g.EdgeL[i].Src != g2.EdgeL[i].Src || g.EdgeL[i].Dst != g2.EdgeL[i].Dst ||
				g.EdgeL[i].Label != g2.EdgeL[i].Label {
				return false
			}
		}
		for i := range g.VProps {
			if len(g.VProps[i]) > 0 && g2.VProps[i]["n"] != g.VProps[i]["n"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReadAcrossWindowBoundaries shifts a document past the end of
// Read's first window one byte at a time, so that the window ends in
// turn inside every token of a dense stretch of the document: escapes,
// surrogate pairs, numbers, literals, skipped nested values, and a
// skipped top-level number, which only the byte after it ends. A string
// longer than the window makes it grow. Every shift must read as the
// encoding/json reader reads the unshifted document, and a cut at any
// byte of the stretch must be an error.
func TestReadAcrossWindowBoundaries(t *testing.T) {
	const dense = `{"_id":"vé🎉","s":"a\"b\\c\/\n","i":-12345,"f":6.02e23,"t":true,"n":null,"_type":{"x":[1,{"y":"z"}]}},` +
		`{"_id":2,"f":false,"e":1E-5,"z":-0,"u":" \uDC00"}],"num":-123.456e7,"vertices":[`
	// Unshifted, the first window ends just after the dense stretch.
	const open, close = `{"mode":"NORMAL","pad":"`, `","vertices":[`
	head := open + strings.Repeat("p", readWindow-len(open)-len(close)-len(dense)) + close
	tail := dense + `{"_id":3,"long":"` + strings.Repeat("l", readWindow) + `"}],` +
		`"edges":[{"_outV":2,"_inV":3,"_label":"k","_id":{"a":[]},"w":1.5},{"_outV":"vé🎉","_inV":2,"_label":7}],"end":[true,false,null,-1.5e-3]}`
	want, err := legacyRead(strings.NewReader(head + tail))
	if err != nil {
		t.Fatal(err)
	}
	for shift := 0; shift < len(dense)+20; shift++ {
		got, err := Read(strings.NewReader(strings.Repeat(" ", shift) + head + tail))
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if diff := diffGraphs(got, want); diff != "" {
			t.Fatalf("shift %d: %s", shift, diff)
		}
	}
	doc := head + tail
	for cut := len(head); cut < len(head)+len(dense)+5; cut++ {
		if _, err := Read(strings.NewReader(doc[:cut])); err == nil {
			t.Fatalf("document cut after %d bytes accepted", cut)
		}
	}
}

// TestReadPassesOnSourceErrors: an error from the reader, other than
// its end, ends Read with that error.
func TestReadPassesOnSourceErrors(t *testing.T) {
	errBroken := errors.New("broken pipe")
	src := io.MultiReader(strings.NewReader(`{"vertices":[{"_id":1},`), iotest.ErrReader(errBroken))
	if _, err := Read(src); !errors.Is(err, errBroken) {
		t.Fatalf("err = %v, want %v", err, errBroken)
	}
}

// TestReadNestingLimitMatchesLegacy: skipped values may nest as deep as
// encoding/json allows, counted from the value it decoded (the field's
// own value at the top level, the element inside an array), and no
// deeper.
func TestReadNestingLimitMatchesLegacy(t *testing.T) {
	nested := func(d int) string { return strings.Repeat("[", d) + strings.Repeat("]", d) }
	for _, d := range []int{9998, 9999, 10000, 10001} {
		for _, doc := range []string{
			`{"x":` + nested(d) + `,"vertices":[]}`,
			`{"vertices":[{"_id":1,"_type":` + nested(d) + `}]}`,
		} {
			_, err := Read(strings.NewReader(doc))
			_, legacyErr := legacyRead(strings.NewReader(doc))
			if (err == nil) != (legacyErr == nil) {
				t.Errorf("depth %d in %.20s: Read error %v, encoding/json reader error %v", d, doc, err, legacyErr)
			}
		}
	}
}
