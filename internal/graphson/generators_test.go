package graphson_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graphson"
)

// TestWriteMatchesMarshalOnGenerators pins Write's output, for every
// dataset generator, to the bytes of the encoding/json writer it
// replaced, so file sizes (the "Raw Data" of Figure 1) cannot move. It
// also checks that no generator emits a property name starting with
// "_", the prefix of GraphSON's and arango's own fields.
func TestWriteMatchesMarshalOnGenerators(t *testing.T) {
	for _, spec := range datasets.Specs() {
		g := spec.Generate(0.002)
		var got bytes.Buffer
		if err := graphson.Write(&got, g); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if want := marshalGraph(t, g); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: Write differs from the encoding/json output (%d vs %d bytes)", spec.Name, got.Len(), len(want))
		}
		for i, p := range g.VProps {
			checkNames(t, spec.Name, "vertex", i, p)
		}
		for i := range g.EdgeL {
			checkNames(t, spec.Name, "edge", i, g.EdgeL[i].Props)
		}
	}
}

func checkNames(t *testing.T, dataset, kind string, i int, p core.Props) {
	t.Helper()
	for k := range p {
		if strings.HasPrefix(k, "_") {
			t.Errorf("%s: %s %d has property %q", dataset, kind, i, k)
		}
	}
}

// marshalGraph is the GraphSON writer before the hand-written codec:
// one json.Marshal of a map[string]any per element.
func marshalGraph(t *testing.T, g *core.Graph) []byte {
	var b bytes.Buffer
	obj := func(m map[string]any, p core.Props) {
		for k, v := range p {
			switch v.Kind() {
			case core.KindString:
				m[k] = v.Str()
			case core.KindInt:
				m[k] = v.Int()
			case core.KindFloat:
				m[k] = v.Float()
			case core.KindBool:
				m[k] = v.Bool()
			case core.KindNil:
				m[k] = nil
			}
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(out)
	}
	b.WriteString(`{"mode":"NORMAL","vertices":[`)
	for i := 0; i < g.NumVertices(); i++ {
		if i > 0 {
			b.WriteString(",")
		}
		obj(map[string]any{"_id": i, "_type": "vertex"}, g.VProps[i])
	}
	b.WriteString(`],"edges":[`)
	for i, e := range g.EdgeL {
		if i > 0 {
			b.WriteString(",")
		}
		obj(map[string]any{"_id": i, "_type": "edge", "_outV": e.Src, "_inV": e.Dst, "_label": e.Label}, e.Props)
	}
	b.WriteString("]}\n")
	return b.Bytes()
}
