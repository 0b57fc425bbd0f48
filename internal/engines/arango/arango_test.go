package arango

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines/enginetest"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New() })
}

func TestConcurrencyConformance(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New() })
}

func TestInteractiveOpsCrossRESTBoundary(t *testing.T) {
	e := New()
	defer e.Close()
	before := e.RESTBytes()
	v, _ := e.AddVertex(core.Props{"a": core.I(1)})
	afterInsert := e.RESTBytes()
	if afterInsert <= before {
		t.Fatal("AddVertex did not cross the REST boundary")
	}
	e.VertexProps(v)
	if e.RESTBytes() <= afterInsert {
		t.Fatal("read did not cross the REST boundary")
	}
}

func TestBulkLoadBypassesREST(t *testing.T) {
	e := New()
	defer e.Close()
	g := core.NewGraph(100, 100)
	for i := 0; i < 100; i++ {
		g.AddVertex(core.Props{"i": core.I(int64(i))})
	}
	for i := 0; i < 100; i++ {
		g.AddEdge(i, (i+1)%100, "l", nil)
	}
	before := e.RESTBytes()
	if _, err := e.BulkLoad(g); err != nil {
		t.Fatal(err)
	}
	if e.RESTBytes() != before {
		t.Fatal("bulk load pushed bytes through REST (native path expected)")
	}
}

func TestDocumentsAreSelfContainedJSON(t *testing.T) {
	e := New()
	defer e.Close()
	v, _ := e.AddVertex(core.Props{"name": core.S("x")})
	doc := e.vdocs[v]
	if len(doc) == 0 || doc[0] != '{' {
		t.Fatalf("vertex not stored as JSON: %q", doc)
	}
	// Updating a property rewrites the serialized document.
	e.SetVertexProp(v, "name", core.S("a-much-longer-name"))
	if string(e.vdocs[v]) == string(doc) {
		t.Fatal("document not rewritten on update")
	}
}

func TestEdgeHashIndexServesTraversalWithoutDecode(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	eid, _ := e.AddEdge(a, b, "knows", core.Props{"big": core.S("payload payload payload")})
	// Corrupt the stored document: traversal and EdgeEnds must still work
	// because they are served from the hash index, not the document.
	e.edocs[eid] = []byte("not json")
	src, dst, err := e.EdgeEnds(eid)
	if err != nil || src != a || dst != b {
		t.Fatalf("EdgeEnds = %v,%v,%v", src, dst, err)
	}
	if n := core.Drain(e.Neighbors(a, core.DirOut)); n != 1 {
		t.Fatalf("neighbors = %d", n)
	}
	if l, err := e.EdgeLabel(eid); err != nil || l != "knows" {
		t.Fatalf("label = %q %v", l, err)
	}
}

func TestDeclaredIndexChangesNothing(t *testing.T) {
	e := New()
	defer e.Close()
	for i := 0; i < 50; i++ {
		e.AddVertex(core.Props{"k": core.I(int64(i % 5))})
	}
	before := core.Drain(e.VerticesByProp("k", core.I(2)))
	if err := e.BuildVertexPropIndex("k"); err != nil {
		t.Fatal(err)
	}
	after := core.Drain(e.VerticesByProp("k", core.I(2)))
	if before != after || after != 10 {
		t.Fatalf("index changed results: %d vs %d", before, after)
	}
}

// marshalDoc is the document encoder before the hand-written codec:
// json.Marshal of the properties and system fields as a map[string]any.
func marshalDoc(t *testing.T, p core.Props, sys map[string]any) []byte {
	t.Helper()
	for k, v := range p {
		switch v.Kind() {
		case core.KindString:
			sys[k] = v.Str()
		case core.KindInt:
			sys[k] = v.Int()
		case core.KindFloat:
			sys[k] = v.Float()
		case core.KindBool:
			sys[k] = v.Bool()
		case core.KindNil:
			sys[k] = nil
		}
	}
	b, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDocumentsMatchMarshalOnGenerators pins every stored document of
// every dataset generator to the bytes encoding/json produced, so
// SpaceUsage and space_amp cannot move, and checks each decodes back to
// its element's properties.
func TestDocumentsMatchMarshalOnGenerators(t *testing.T) {
	for _, spec := range datasets.Specs() {
		g := spec.Generate(0.002)
		e := New()
		res, err := e.BulkLoad(g)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i, id := range res.VertexIDs {
			want := marshalDoc(t, g.VProps[i], map[string]any{"_key": int64(id)})
			if got := e.vdocs[id]; !bytes.Equal(got, want) {
				t.Fatalf("%s vertex %d:\n got %s\nwant %s", spec.Name, i, got, want)
			}
			if p, err := e.VertexProps(id); err != nil || !sameProps(p, g.VProps[i]) {
				t.Fatalf("%s vertex %d: decoded %v, %v; want %v", spec.Name, i, p, err, g.VProps[i])
			}
		}
		for i, id := range res.EdgeIDs {
			er := &g.EdgeL[i]
			want := marshalDoc(t, er.Props, map[string]any{"_key": int64(id),
				"_from": int64(res.VertexIDs[er.Src]), "_to": int64(res.VertexIDs[er.Dst]), "_label": er.Label})
			if got := e.edocs[id]; !bytes.Equal(got, want) {
				t.Fatalf("%s edge %d:\n got %s\nwant %s", spec.Name, i, got, want)
			}
			if p, err := e.EdgeProps(id); err != nil || !sameProps(p, er.Props) {
				t.Fatalf("%s edge %d: decoded %v, %v; want %v", spec.Name, i, p, err, er.Props)
			}
		}
	}
}

// sameProps compares property sets as JSON carries them: a float with
// an integral value is stored without a fraction and reads back as an
// int.
func sameProps(a, b core.Props) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb && !(vb.Kind() == core.KindFloat && va == core.I(int64(vb.Float()))) {
			return false
		}
	}
	return true
}

// TestUnencodableWritesStoreNothing: a value JSON cannot carry, or a
// property named like one of the document's system fields, is refused
// by every write, and the element is left as it was.
func TestUnencodableWritesStoreNothing(t *testing.T) {
	bad := map[string]core.Props{
		"NaN":  {"x": core.F(math.NaN())},
		"+Inf": {"x": core.F(math.Inf(1))},
		"-Inf": {"x": core.F(math.Inf(-1))},
	}
	e := New()
	a, _ := e.AddVertex(core.Props{"k": core.I(1)})
	b, _ := e.AddVertex(nil)
	eid, _ := e.AddEdge(a, b, "l", core.Props{"k": core.I(2)})
	nv, ne := len(e.vdocs), len(e.edocs)
	vdoc, edoc := string(e.vdocs[a]), string(e.edocs[eid])
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", what)
		}
		if len(e.vdocs) != nv || len(e.edocs) != ne || string(e.vdocs[a]) != vdoc || string(e.edocs[eid]) != edoc {
			t.Fatalf("%s: the store changed", what)
		}
	}
	for name, p := range bad {
		_, err := e.AddVertex(p)
		check("AddVertex "+name, err)
		_, err = e.AddEdge(a, b, "l", p)
		check("AddEdge "+name, err)
		check("SetVertexProp "+name, e.SetVertexProp(a, "x", p["x"]))
		check("SetEdgeProp "+name, e.SetEdgeProp(eid, "x", p["x"]))
	}
	_, err := e.AddVertex(core.Props{"_key": core.I(9)})
	check("AddVertex _key", err)
	check("SetVertexProp _key", e.SetVertexProp(a, "_key", core.I(9)))
	for _, name := range []string{"_key", "_from", "_to", "_label"} {
		_, err := e.AddEdge(a, b, "l", core.Props{name: core.I(9)})
		check("AddEdge "+name, err)
		check("SetEdgeProp "+name, e.SetEdgeProp(eid, name, core.S("x")))
	}
	if got := core.Drain(e.Edges()); got != 1 {
		t.Fatalf("Edges = %d, want 1", got)
	}
	// A system-field name of the other document kind is an ordinary
	// property.
	if err := e.SetVertexProp(a, "_label", core.S("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.VertexProp(a, "_label"); !ok || v != core.S("v") {
		t.Fatalf("VertexProp(_label) = %v, %v", v, ok)
	}
	g := core.NewGraph(1, 0)
	g.AddVertex(core.Props{"x": core.F(math.NaN())})
	if _, err := New().BulkLoad(g); err == nil {
		t.Error("BulkLoad accepted NaN")
	}
}

// restSequenceBytes is RESTBytes after restSequence, captured when
// documents were still encoded through encoding/json: the document
// codec must not change what crosses the simulated REST boundary.
const restSequenceBytes = 7742

func restSequence(e *Engine) {
	var vs []core.ID
	for i := 0; i < 20; i++ {
		v, _ := e.AddVertex(core.Props{"name": core.S("v<&>"), "i": core.I(int64(i)), "f": core.F(0.25)})
		vs = append(vs, v)
	}
	var es []core.ID
	for i := 1; i < len(vs); i++ {
		eid, _ := e.AddEdge(vs[i-1], vs[i], "next", core.Props{"w": core.I(int64(i))})
		es = append(es, eid)
	}
	for i, v := range vs {
		e.VertexProps(v)
		e.VertexProp(v, "name")
		e.SetVertexProp(v, "name", core.S("renamed "))
		if i%3 == 0 {
			e.RemoveVertexProp(v, "f")
		}
		core.Drain(e.Neighbors(v, core.DirBoth))
	}
	for _, eid := range es {
		e.EdgeProps(eid)
		e.EdgeProp(eid, "w")
		e.SetEdgeProp(eid, "w", core.F(1.5))
		e.RemoveEdgeProp(eid, "w")
	}
	e.CountVertices()
	e.CountEdges()
	core.Drain(e.Vertices())
	core.Drain(e.Edges())
	core.Drain(e.VerticesByProp("i", core.I(3)))
	core.Drain(e.EdgesByProp("w", core.I(2)))
	core.Drain(e.EdgesByLabel("next"))
	e.RemoveEdge(es[0])
	e.RemoveVertex(vs[5])
}

func TestRESTBytesPinned(t *testing.T) {
	e := New()
	restSequence(e)
	if got := e.RESTBytes(); got != restSequenceBytes {
		t.Fatalf("RESTBytes = %d, want %d", got, restSequenceBytes)
	}
}
