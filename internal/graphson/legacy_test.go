package graphson

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"

	"repro/internal/core"
)

// This file keeps the encoding/json GraphSON reader that Read replaced,
// as the oracle Read is tested against: every element decoded into a
// map[string]any with UseNumber, then split into id, endpoints, label
// and properties.

// legacyRead is the encoding/json reader. It stops at the first byte
// that cannot continue the top-level object, so it also accepts a
// document missing its closing brace or followed by other data, which
// Read rejects.
func legacyRead(r io.Reader) (*core.Graph, error) {
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

// LegacyRead and DiffGraphs serve the external tests, which can import
// the dataset generators.
var (
	LegacyRead = legacyRead
	DiffGraphs = diffGraphs
)

// diffGraphs describes the first difference between two graphs, or
// returns "" when they are equal: the same vertices in the same order,
// with equal properties (nil where there are none), and the same edges
// in the same order, with equal endpoints, labels and properties.
func diffGraphs(got, want *core.Graph) string {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("%d vertices, %d edges; want %d, %d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for i := range want.VProps {
		if a, b := got.VProps[i], want.VProps[i]; (a == nil) != (b == nil) || !maps.Equal(a, b) {
			return fmt.Sprintf("vertex %d: %v, want %v", i, a, b)
		}
	}
	for i := range want.EdgeL {
		a, b := &got.EdgeL[i], &want.EdgeL[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Label != b.Label ||
			(a.Props == nil) != (b.Props == nil) || !maps.Equal(a.Props, b.Props) {
			return fmt.Sprintf("edge %d: %+v, want %+v", i, *a, *b)
		}
	}
	return ""
}
