package graphson_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graphson"
	"repro/internal/race"
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

// TestReadMatchesLegacyOnGenerators: for every dataset generator, Read
// returns the graph the encoding/json reader it replaced returns, at
// 0.002 and at the load workload's 0.015. frb-l at 0.015 is left out:
// its 76 MB document and the two graphs read from it take 0.9 GB. The
// larger scale is also left out under the race detector, which makes
// it slow, and which finds nothing in one goroutine's code.
func TestReadMatchesLegacyOnGenerators(t *testing.T) {
	scales := []float64{0.002, 0.015}
	if race.Enabled {
		scales = scales[:1]
	}
	for _, scale := range scales {
		for _, spec := range datasets.Specs() {
			if spec.Name == "frb-l" && scale > 0.002 {
				continue
			}
			var doc bytes.Buffer
			if err := graphson.Write(&doc, spec.Generate(scale)); err != nil {
				t.Fatalf("%s@%g: %v", spec.Name, scale, err)
			}
			want, err := graphson.LegacyRead(bytes.NewReader(doc.Bytes()))
			if err != nil {
				t.Fatalf("%s@%g: legacy reader: %v", spec.Name, scale, err)
			}
			got, err := graphson.Read(bytes.NewReader(doc.Bytes()))
			if err != nil {
				t.Fatalf("%s@%g: %v", spec.Name, scale, err)
			}
			if diff := graphson.DiffGraphs(got, want); diff != "" {
				t.Errorf("%s@%g: %s", spec.Name, scale, diff)
			}
		}
	}
}

// BenchmarkRead reads the GraphSON of the datasets the load workload
// round-trips.
func BenchmarkRead(b *testing.B) {
	for _, name := range []string{"frb-s", "ldbc", "mico"} {
		spec := datasets.ByName(name)
		var doc bytes.Buffer
		if err := graphson.Write(&doc, spec.Generate(0.015)); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(doc.Len()))
			for b.Loop() {
				if _, err := graphson.Read(bytes.NewReader(doc.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadAllocs bounds Read's allocations per element on the frb-s
// document the load workload reads: a vertex allocates its property
// map and one string for its string values, an edge nothing of its
// own. The ceiling is 1.15× the measured 1.95; the encoding/json
// reader made 26.
func TestReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := datasets.ByName("frb-s").Generate(0.015)
	var doc bytes.Buffer
	if err := graphson.Write(&doc, g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := graphson.Read(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	perElement := allocs / float64(g.NumVertices()+g.NumEdges())
	t.Logf("%.0f allocations, %.3f per element", allocs, perElement)
	if perElement > 1.15*1.95 {
		t.Errorf("Read makes %.3f allocations per element, want at most %.3f", perElement, 1.15*1.95)
	}
}
