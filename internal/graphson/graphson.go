// Package graphson reads and writes the GraphSON 1.0 ("plain JSON")
// graph interchange format used by the paper's suite as the common input
// for every engine:
//
//	{
//	  "mode": "NORMAL",
//	  "vertices": [ {"_id": 1, "_type": "vertex", "name": "marko"}, ... ],
//	  "edges":    [ {"_id": 7, "_type": "edge", "_outV": 1, "_inV": 2,
//	                 "_label": "knows", "weight": 0.5}, ... ]
//	}
//
// The reader streams: vertices and edges are decoded one element at a
// time, so datasets larger than memory headroom still load (loading the
// biggest sample is itself one of the paper's experiments).
package graphson

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// Reserved GraphSON field names, in key order: the order Write hands
// them to AppendObject in.
const (
	fieldID    = "_id"
	fieldInV   = "_inV"
	fieldLabel = "_label"
	fieldOutV  = "_outV"
	fieldType  = "_type"
)

// Read parses a GraphSON document into a dataset graph. Vertex _id
// values may be any JSON scalar; they are mapped to dense indexes in
// encounter order. Edges may precede vertices in the document.
func Read(r io.Reader) (*core.Graph, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()

	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("graphson: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("graphson: document must be a JSON object, got %v", tok)
	}

	g := core.NewGraph(0, 0)
	vids := make(map[string]int)
	type pendingEdge struct {
		out, in string
		label   string
		props   core.Props
	}
	var pending []pendingEdge

	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("graphson: %w", err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "vertices":
			if err := eachElement(dec, func(obj map[string]any) error {
				id, props, err := splitVertex(obj)
				if err != nil {
					return err
				}
				if _, dup := vids[id]; dup {
					return fmt.Errorf("duplicate vertex _id %q", id)
				}
				vids[id] = g.AddVertex(props)
				return nil
			}); err != nil {
				return nil, fmt.Errorf("graphson: vertices: %w", err)
			}
		case "edges":
			if err := eachElement(dec, func(obj map[string]any) error {
				e, err := splitEdge(obj)
				if err != nil {
					return err
				}
				pending = append(pending, pendingEdge{e.out, e.in, e.label, e.props})
				return nil
			}); err != nil {
				return nil, fmt.Errorf("graphson: edges: %w", err)
			}
		default:
			// "mode" and any unknown top-level fields: skip the value.
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, fmt.Errorf("graphson: skipping %q: %w", key, err)
			}
		}
	}
	for _, e := range pending {
		src, ok := vids[e.out]
		if !ok {
			return nil, fmt.Errorf("graphson: edge references unknown _outV %q", e.out)
		}
		dst, ok := vids[e.in]
		if !ok {
			return nil, fmt.Errorf("graphson: edge references unknown _inV %q", e.in)
		}
		g.AddEdge(src, dst, e.label, e.props)
	}
	return g, nil
}

type edgeParts struct {
	out, in, label string
	props          core.Props
}

func eachElement(dec *json.Decoder, fn func(map[string]any) error) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("expected array, got %v", tok)
	}
	for dec.More() {
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			return err
		}
		if err := fn(obj); err != nil {
			return err
		}
	}
	_, err = dec.Token() // closing ']'
	return err
}

func scalarKey(v any) (string, error) {
	switch x := v.(type) {
	case string:
		return "s" + x, nil
	case json.Number:
		return "n" + x.String(), nil
	case bool:
		return fmt.Sprintf("b%v", x), nil
	default:
		return "", fmt.Errorf("unsupported id type %T", v)
	}
}

func splitVertex(obj map[string]any) (id string, props core.Props, err error) {
	raw, ok := obj[fieldID]
	if !ok {
		return "", nil, fmt.Errorf("vertex missing %s", fieldID)
	}
	id, err = scalarKey(raw)
	if err != nil {
		return "", nil, err
	}
	props = core.Props{}
	for k, v := range obj {
		if k == fieldID || k == fieldType {
			continue
		}
		val, err := toValue(v)
		if err != nil {
			return "", nil, fmt.Errorf("vertex %s property %q: %w", id, k, err)
		}
		props[k] = val
	}
	if len(props) == 0 {
		props = nil
	}
	return id, props, nil
}

func splitEdge(obj map[string]any) (edgeParts, error) {
	var e edgeParts
	rawOut, ok := obj[fieldOutV]
	if !ok {
		return e, fmt.Errorf("edge missing %s", fieldOutV)
	}
	rawIn, ok := obj[fieldInV]
	if !ok {
		return e, fmt.Errorf("edge missing %s", fieldInV)
	}
	var err error
	if e.out, err = scalarKey(rawOut); err != nil {
		return e, err
	}
	if e.in, err = scalarKey(rawIn); err != nil {
		return e, err
	}
	if l, ok := obj[fieldLabel].(string); ok {
		e.label = l
	}
	e.props = core.Props{}
	for k, v := range obj {
		switch k {
		case fieldID, fieldType, fieldOutV, fieldInV, fieldLabel:
			continue
		}
		val, err := toValue(v)
		if err != nil {
			return e, fmt.Errorf("edge property %q: %w", k, err)
		}
		e.props[k] = val
	}
	if len(e.props) == 0 {
		e.props = nil
	}
	return e, nil
}

func toValue(v any) (core.Value, error) {
	switch x := v.(type) {
	case string:
		return core.S(x), nil
	case bool:
		return core.B(x), nil
	case nil:
		return core.Nil, nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return core.I(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return core.Nil, err
		}
		return core.F(f), nil
	default:
		return core.Nil, fmt.Errorf("unsupported property type %T", v)
	}
}

// Write serializes a dataset graph as GraphSON 1.0. Vertex _id values
// are the dense indexes, so Write∘Read is identity on structure. It
// fails on a graph JSON cannot carry: a non-finite float, or a property
// with the name of one of the element's own fields (_id and _type on a
// vertex; those and _outV, _inV and _label on an edge).
func Write(w io.Writer, g *core.Graph) error {
	// Elements are encoded into one buffer, handed to w whenever it
	// holds writeChunk bytes.
	const writeChunk = 32 << 10
	buf := make([]byte, 0, writeChunk+4<<10)
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	var err error
	buf = append(buf, `{"mode":"NORMAL","vertices":[`...)
	for i := 0; i < g.NumVertices(); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf, err = AppendObject(buf, g.VProps[i],
			Field{fieldID, core.I(int64(i))},
			Field{fieldType, core.S("vertex")})
		if err != nil {
			return fmt.Errorf("%w (vertex %d)", err, i)
		}
		if len(buf) >= writeChunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	buf = append(buf, `],"edges":[`...)
	for i := range g.EdgeL {
		if i > 0 {
			buf = append(buf, ',')
		}
		e := &g.EdgeL[i]
		buf, err = AppendObject(buf, e.Props,
			Field{fieldID, core.I(int64(i))},
			Field{fieldInV, core.I(int64(e.Dst))},
			Field{fieldLabel, core.S(e.Label)},
			Field{fieldOutV, core.I(int64(e.Src))},
			Field{fieldType, core.S("edge")})
		if err != nil {
			return fmt.Errorf("%w (edge %d)", err, i)
		}
		if len(buf) >= writeChunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	buf = append(buf, "]}\n"...)
	return flush()
}
