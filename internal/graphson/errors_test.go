package graphson

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// failAfter is a writer that errors once n bytes have been written.
type failAfter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	f.written += len(p)
	if f.written > f.n {
		return 0, errDiskFull
	}
	return len(p), nil
}

func TestWritePropagatesWriterErrors(t *testing.T) {
	g := core.NewGraph(100, 100)
	for i := 0; i < 100; i++ {
		g.AddVertex(core.Props{"name": core.S("some vertex name")})
	}
	for i := 0; i < 100; i++ {
		g.AddEdge(i, (i+1)%100, "l", nil)
	}
	for _, limit := range []int{0, 10, 500, 5000} {
		if err := Write(&failAfter{n: limit}, g); !errors.Is(err, errDiskFull) {
			t.Errorf("limit %d: err = %v, want disk full", limit, err)
		}
	}
}

// TestWriteRefusesWhatJSONCannotCarry: a non-finite float, or a
// property named like one of the element's own fields, fails Write
// instead of producing a file that reads back differently.
func TestWriteRefusesWhatJSONCannotCarry(t *testing.T) {
	vertex := func(p core.Props) *core.Graph {
		g := core.NewGraph(1, 0)
		g.AddVertex(p)
		return g
	}
	edge := func(p core.Props) *core.Graph {
		g := core.NewGraph(1, 1)
		g.AddVertex(nil)
		g.AddEdge(0, 0, "l", p)
		return g
	}
	cases := map[string]*core.Graph{
		"vertex NaN":   vertex(core.Props{"f": core.F(math.NaN())}),
		"vertex +Inf":  vertex(core.Props{"f": core.F(math.Inf(1))}),
		"edge -Inf":    edge(core.Props{"f": core.F(math.Inf(-1))}),
		"vertex _id":   vertex(core.Props{"_id": core.I(5)}),
		"vertex _type": vertex(core.Props{"_type": core.S("edge")}),
	}
	for _, name := range []string{"_id", "_type", "_outV", "_inV", "_label"} {
		cases["edge "+name] = edge(core.Props{name: core.I(5)})
	}
	for name, g := range cases {
		if err := Write(&bytes.Buffer{}, g); err == nil {
			t.Errorf("%s: Write accepted it", name)
		}
	}
	// Edge-only names and other "_" names are ordinary vertex properties.
	g := vertex(core.Props{"_outV": core.I(1), "_label": core.S("x"), "_x": core.B(true)})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil || len(g2.VProps[0]) != 3 || g2.VProps[0]["_x"] != core.B(true) {
		t.Fatalf("round trip = %v, %v", g2.VProps, err)
	}
}

func TestReadToleratesUnknownTopLevelFields(t *testing.T) {
	doc := `{"mode":"NORMAL","generator":{"tool":"x","nested":[1,2]},
	         "vertices":[{"_id":1}],"edges":[],"trailing":42}`
	g, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("graph = %d/%d", g.NumVertices(), g.NumEdges())
	}
}

func TestReadBoolAndMixedIDKinds(t *testing.T) {
	// Scalar ids of different JSON types must not collide ("1" vs 1).
	doc := `{"vertices":[{"_id":"1"},{"_id":1},{"_id":true}],
	         "edges":[{"_outV":"1","_inV":1,"_label":"x"},
	                  {"_outV":true,"_inV":"1","_label":"y"}]}`
	g, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph = %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g.EdgeL[0].Src == g.EdgeL[0].Dst {
		t.Fatal(`"1" and 1 collided`)
	}
}

func TestReadRejectsCompositeIDs(t *testing.T) {
	doc := `{"vertices":[{"_id":{"compound":1}}]}`
	if _, err := Read(strings.NewReader(doc)); err == nil {
		t.Fatal("object id accepted")
	}
	doc = `{"vertices":[{"_id":1}],"edges":[{"_outV":[1],"_inV":1}]}`
	if _, err := Read(strings.NewReader(doc)); err == nil {
		t.Fatal("array endpoint accepted")
	}
}

func TestReadEdgeWithoutLabel(t *testing.T) {
	doc := `{"vertices":[{"_id":1},{"_id":2}],"edges":[{"_outV":1,"_inV":2}]}`
	g, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeL[0].Label != "" {
		t.Fatalf("label = %q", g.EdgeL[0].Label)
	}
}

func TestReadVerticesNotArray(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"vertices":{"a":1}}`)); err == nil {
		t.Fatal("object vertices accepted")
	}
	if _, err := Read(strings.NewReader(``)); err == nil {
		t.Fatal("empty document accepted")
	}
}

func TestNullPropertyValue(t *testing.T) {
	g, err := Read(strings.NewReader(`{"vertices":[{"_id":1,"p":null}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := g.VProps[0]["p"]; !ok || !v.IsNil() {
		t.Fatalf("null property = %v, %v", v, ok)
	}
}
