package graphson

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"testing"

	"repro/internal/core"
)

// FuzzObject feeds arbitrary bytes to DecodeObject. No input may panic;
// DecodeObject must accept exactly what encoding/json accepts as a flat
// object of scalars and decode it to the properties the encoding/json
// path it replaced gives; and what decodes must re-encode and
// re-decode to the same properties, as JSON values (a float with an
// integral value reads back as an int, as it does through
// encoding/json).
func FuzzObject(f *testing.F) {
	enc, _ := AppendObject(nil, awkward, Field{"_id", core.I(1)})
	f.Add(enc)
	for _, s := range []string{
		`{}`, `{"a":1,"b":"x","c":null,"d":true,"e":-0.5e-3}`,
		`{"a":"🎉\ud800é\/"}`, "{\"a\":\"\xff\"}",
		`{"a":[1],"a":1}`, `{"a":1} `, `{"a":1}x`, `{"a":1e400}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeObject(data)
		legacy, legacyErr := legacyDecode(data)
		if accepted := flatObject(data) && legacyErr == nil; (err == nil) != accepted {
			t.Fatalf("DecodeObject error %v; encoding/json accepts it: %v (%v)", err, accepted, legacyErr)
		}
		if err != nil {
			return
		}
		if !maps.Equal(p, legacy) {
			t.Fatalf("decoded %v, encoding/json path %v", p, legacy)
		}
		again, err := AppendObject(nil, p)
		if err != nil {
			t.Fatalf("decoded properties do not encode: %v", err)
		}
		p2, err := DecodeObject(again)
		if err != nil {
			t.Fatalf("re-encoded object %q does not decode: %v", again, err)
		}
		if !sameProps(p, p2) {
			t.Fatalf("round trip %v -> %q -> %v", p, again, p2)
		}
	})
}

// FuzzRead feeds arbitrary bytes to Read and to the encoding/json
// reader it replaced. No input may panic. The two must accept and
// reject alike, except that the old reader also accepts a document cut
// short after a complete field or followed by other data, and must
// return equal graphs. A graph Read accepts must also survive
// Write∘Read: the same vertices, the same edges in the same order, and
// the same properties as JSON values.
func FuzzRead(f *testing.F) {
	f.Add([]byte(sample))
	g := core.NewGraph(2, 1)
	g.AddVertex(awkward)
	g.AddVertex(nil)
	g.AddEdge(0, 1, "l<&>", core.Props{"_x": core.F(0.5)})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		`{"edges":[{"_outV":1,"_inV":2,"_label":"x"}],"vertices":[{"_id":1},{"_id":2}]}`,
		`{"vertices":[{"_id":"1"},{"_id":1},{"_id":true}],"edges":[{"_outV":"1","_inV":1}]}`,
		`{"mode":"NORMAL","generator":{"nested":[1,2]},"vertices":[{"_id":1,"_outV":2,"_label":3}]}`,
		`{"vertices":[{"_id":1,"p":null,"f":1.0}]}`,
		`{"vertices":[{"_id":1,"_type":{"a":[{"b":[]}],"c":"\u00e9"}}]}`,
		`{"vertices":[{"_id":1},{"_id":2}],"edges":[{"_outV":1,"_inV":2,"_label":{"x":[1]},"_id":[null]}]}`,
		`{"vertices":[{"_id":1,"a":1,"a":"two","_id":[0],"_id":2,"b":[1],"b":false}],"vertices":[{"_id":3}]}`,
		`{"vertices":[{"_id":1},{"_id":1.0},{"_id":-0},{"_id":0},{"_id":1e400}],"edges":[{"_outV":1.0,"_inV":-0}]}`,
		`{"vert\u0069ces":[{"\u005fid":"\ud800","n\u0061me":"\u00e9"}],"edges":[{"_outV":"\ufffd","_inV":"\ud800","_l\u0061bel":"x"}]}`,
		`{"vertices":[{"_id":1,"big":1e400}]}`,
		`{"vertices":[{"_id":1,"big":1e400,"big":1}]}`,
		`{"vertices":[1]}`, `{"vertices":[null]}`, `{"vertices":[[{"_id":1}]]}`, `{"edges":["x"]}`,
		`{"vertices":[{"_id":1}]`, `{"vertices":[{"_id":1}]} x`, `{"vertices":[{"_id":1}]]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		want, legacyErr := legacyRead(bytes.NewReader(data))
		if accepted := legacyErr == nil && wholeValue(data); (err == nil) != accepted {
			t.Fatalf("Read error %v; the encoding/json reader accepts it: %v (%v)", err, accepted, legacyErr)
		}
		if err != nil {
			return
		}
		if diff := diffGraphs(g, want); diff != "" {
			t.Fatalf("Read and the encoding/json reader differ: %s", diff)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("accepted graph does not write: %v", err)
		}
		g2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written graph does not read: %v\n%s", err, buf.Bytes())
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip: %d/%d elements, want %d/%d",
				g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		for i := range g.VProps {
			if !sameProps(g.VProps[i], g2.VProps[i]) {
				t.Fatalf("vertex %d: %v, want %v", i, g2.VProps[i], g.VProps[i])
			}
		}
		for i := range g.EdgeL {
			a, b := &g.EdgeL[i], &g2.EdgeL[i]
			if a.Src != b.Src || a.Dst != b.Dst || a.Label != b.Label || !sameProps(a.Props, b.Props) {
				t.Fatalf("edge %d: %+v, want %+v", i, *b, *a)
			}
		}
	})
}

// wholeValue reports whether data is one complete JSON value followed
// by nothing but whitespace, walking it token by token as the old
// reader did (so without encoding/json's nesting limit on the
// document's own object).
func wholeValue(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
		if depth == 0 {
			_, err := dec.Token()
			return err == io.EOF
		}
	}
}
