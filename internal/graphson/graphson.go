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
// The reader streams: it holds a window of the document, never all of
// it, and decodes vertices and edges one element at a time, so datasets
// larger than memory headroom still load (loading the biggest sample is
// itself one of the paper's experiments).
//
// The grammar Read accepts: the document is one JSON object. Its
// "vertices" and "edges" fields are arrays of objects, and may appear
// in either order, and more than once; any other field may hold any
// JSON value and is skipped. In a vertex, _id is a string, number
// or boolean, _type any value, and every other field a property. In an
// edge, _outV and _inV are such ids, _label a string (any other value
// reads as no label), _id and _type any value, and every other field a
// property. A property is a string, number, boolean or null. The
// document ends at the closing brace of its object, followed by
// nothing but whitespace: a document cut short, or followed by other
// data, is an error.
package graphson

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

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

// Read parses a GraphSON document, in the grammar the package
// documentation gives, into a dataset graph. Vertex _id values are
// mapped to dense indexes in encounter order, and ids of different JSON
// types never collide ("1", 1, 1.0 and true are four vertices). Each
// element decodes as encoding/json with UseNumber decodes it into a
// map[string]any: the last of duplicate keys wins, an integer that fits
// int64 is an int and any other number a float, invalid UTF-8 and
// unpaired surrogates become U+FFFD, and an element with no properties
// has nil props. The document is read through a window of at least
// 64 KiB that holds the element being decoded, so memory beyond the
// graph is bounded by the largest element.
func Read(r io.Reader) (*core.Graph, error) {
	d := &docReader{
		src:   r,
		buf:   make([]byte, readWindow),
		g:     core.NewGraph(0, 0),
		ids:   make(map[idKey]int),
		names: make(map[string]string),
	}
	if err := d.document(); err != nil {
		return nil, err
	}
	for _, e := range d.pending {
		src, ok := d.ids[e.out]
		if !ok {
			return nil, fmt.Errorf("graphson: edge references unknown _outV %v", e.out)
		}
		dst, ok := d.ids[e.in]
		if !ok {
			return nil, fmt.Errorf("graphson: edge references unknown _inV %v", e.in)
		}
		d.g.AddEdge(src, dst, e.label, e.props)
	}
	return d.g, nil
}

// readWindow is the initial size of Read's window; an element longer
// than half of it doubles it.
const readWindow = 64 << 10

// lookahead bounds how many bytes past the offset where a parse of the
// window stopped it can have read: at most a \uXXXX escape, 6 bytes
// from its backslash.
const lookahead = 8

// docReader is Read's state: an objectReader over a window of the
// document, refilled from src, and the graph being built.
type docReader struct {
	objectReader
	src io.Reader
	buf []byte // the window's bytes, of which s is a copy
	eof bool   // src is exhausted: s ends where the document does

	g       *core.Graph
	ids     map[idKey]int     // vertex index by _id
	names   map[string]string // interned property names and edge labels
	pending []pendingEdge     // edges read before one of their endpoints
	el      element
}

// idKey is a vertex _id as Read keys it: by JSON type, then by the
// string, the integer value of an integer literal, or any other
// number's literal.
type idKey struct {
	kind byte // idString, idInt, idNumber or idBool
	s    string
	n    int64 // the integer, or 1 for true
}

const (
	idString = 's'
	idInt    = 'i'
	idNumber = 'n'
	idBool   = 'b'
)

func (k idKey) String() string {
	switch k.kind {
	case idString:
		return strconv.Quote(k.s)
	case idInt:
		return strconv.FormatInt(k.n, 10)
	case idBool:
		return strconv.FormatBool(k.n == 1)
	default:
		return k.s
	}
}

// clone returns k with its own copy of any string it shares with the
// window.
func (k idKey) clone() idKey {
	k.s = strings.Clone(k.s)
	return k
}

type pendingEdge struct {
	out, in idKey
	label   string
	props   core.Props
}

// element is one vertex or edge as parsed, before it joins the graph.
type element struct {
	id, out, in idField // _id of a vertex; _outV and _inV of an edge
	label       string
	props       []prop // in document order, duplicate keys included
	strs        []byte // the string property values, concatenated
}

// idField is the last value of an id field: absent, a scalar, or a
// value no id may have.
type idField struct {
	key     idKey
	set, ok bool
}

// prop is one property of an element. A string value is strs[off:end];
// a bad one (composite, or a number beyond float64) is an error unless
// a later duplicate key replaces it, as in a map[string]any.
type prop struct {
	key      string
	val      core.Value
	off, end int
	str, bad bool
}

// fill slides the window to start at s[keep], reading from src behind
// what it keeps; the window doubles when more than half of it is kept.
func (d *docReader) fill(keep int) error {
	n := copy(d.buf, d.buf[keep:len(d.s)])
	if n > len(d.buf)/2 {
		grown := make([]byte, 2*len(d.buf))
		copy(grown, d.buf[:n])
		d.buf = grown
	}
	m, err := io.ReadFull(d.src, d.buf[n:])
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		d.eof = true
	default:
		return fmt.Errorf("graphson: %w", err)
	}
	d.base += int64(keep)
	d.i -= keep
	d.s = string(d.buf[:n+m])
	return nil
}

// attempt runs parse, which reads one value starting at d.i, until its
// outcome cannot depend on bytes past the window: parse stopped more
// than lookahead bytes before the window's end, or the window reaches
// the end of the document. Otherwise the window is refilled and parse
// runs again from the same byte, so parse must not act on what it
// reads.
func (d *docReader) attempt(parse func() error) error {
	for {
		mark := d.i
		err := parse()
		if d.eof || len(d.s)-d.i > lookahead {
			return err
		}
		d.i = mark
		if err := d.fill(mark); err != nil {
			return err
		}
	}
}

// next skips whitespace, refilling the window, and returns the byte
// after it without consuming it: an error at the end of the document.
func (d *docReader) next() (byte, error) {
	for {
		d.space()
		if d.i < len(d.s) {
			return d.s[d.i], nil
		}
		if d.eof {
			return 0, d.fail("unexpected end")
		}
		if err := d.fill(d.i); err != nil {
			return 0, err
		}
	}
}

// expect consumes the next non-space byte when it is one of want.
func (d *docReader) expect(want string) (byte, error) {
	c, err := d.next()
	if err != nil {
		return 0, err
	}
	if strings.IndexByte(want, c) < 0 {
		return 0, d.fail("expected one of " + want)
	}
	d.i++
	return c, nil
}

// consume reports whether the next non-space byte is c, consuming it
// if it is.
func (d *docReader) consume(c byte) (bool, error) {
	b, err := d.next()
	if err != nil || b != c {
		return false, err
	}
	d.i++
	return true, nil
}

// document reads the top-level object and then requires the end of the
// input, with nothing but whitespace before it.
func (d *docReader) document() error {
	if err := d.object(); err != nil {
		return err
	}
	for {
		d.space()
		if d.i < len(d.s) {
			return d.fail("data after document")
		}
		if d.eof {
			return nil
		}
		if err := d.fill(d.i); err != nil {
			return err
		}
	}
}

// object reads the top-level object: "vertices" and "edges" arrays,
// any number of each, and other fields skipped.
func (d *docReader) object() error {
	if _, err := d.expect("{"); err != nil {
		return err
	}
	if done, err := d.consume('}'); done || err != nil {
		return err
	}
	for {
		if err := d.field(); err != nil {
			return err
		}
		if c, err := d.expect(",}"); err != nil || c == '}' {
			return err
		}
	}
}

// field reads one field of the top-level object.
func (d *docReader) field() error {
	if _, err := d.next(); err != nil {
		return err
	}
	var key string
	if err := d.attempt(func() (err error) { key, err = d.str(); return err }); err != nil {
		return err
	}
	if _, err := d.expect(":"); err != nil {
		return err
	}
	switch key {
	case "vertices":
		return d.array(false)
	case "edges":
		return d.array(true)
	}
	if _, err := d.next(); err != nil {
		return err
	}
	return d.attempt(func() error { return d.skip(0) })
}

// array reads one array of vertices or edges, adding each to the graph.
func (d *docReader) array(edges bool) error {
	if _, err := d.expect("["); err != nil {
		return err
	}
	if done, err := d.consume(']'); done || err != nil {
		return err
	}
	for {
		if _, err := d.next(); err != nil {
			return err
		}
		if err := d.attempt(func() error { return d.element(edges) }); err != nil {
			return err
		}
		var err error
		if edges {
			err = d.addEdge()
		} else {
			err = d.addVertex()
		}
		if err != nil {
			return err
		}
		if c, err := d.expect(",]"); err != nil || c == ']' {
			return err
		}
	}
}

// element parses one vertex or edge object into d.el.
func (d *docReader) element(edge bool) error {
	e := &d.el
	*e = element{props: e.props[:0], strs: e.strs[:0]}
	if !d.eat('{') {
		return d.fail("expected {")
	}
	d.space()
	if d.eat('}') {
		return nil
	}
	for {
		d.space()
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if !d.eat(':') {
			return d.fail("expected :")
		}
		d.space()
		switch {
		case !edge && key == fieldID:
			err = d.id(&e.id)
		case edge && key == fieldOutV:
			err = d.id(&e.out)
		case edge && key == fieldInV:
			err = d.id(&e.in)
		case edge && key == fieldLabel:
			e.label = ""
			if d.peek() == '"' {
				e.label, err = d.str()
			} else {
				err = d.skip(1)
			}
		case key == fieldType || edge && key == fieldID:
			err = d.skip(1)
		default:
			err = d.prop(key)
		}
		if err != nil {
			return err
		}
		d.space()
		if d.eat(',') {
			continue
		}
		if d.eat('}') {
			return nil
		}
		return d.fail("expected , or }")
	}
}

// id reads the value of an id field into f.
func (d *docReader) id(f *idField) error {
	f.set, f.ok = true, true
	switch c := d.peek(); {
	case c == '"':
		s, err := d.str()
		f.key = idKey{kind: idString, s: s}
		return err
	case c == '-' || '0' <= c && c <= '9':
		lit, integer, err := d.numberLit()
		f.key = idKey{kind: idNumber, s: lit}
		// An integer id is keyed by value, which is its literal except
		// for -0.
		if integer && lit != "-0" {
			if n, perr := strconv.ParseInt(lit, 10, 64); perr == nil {
				f.key = idKey{kind: idInt, n: n}
			}
		}
		return err
	case d.literal("true"):
		f.key = idKey{kind: idBool, n: 1}
		return nil
	case d.literal("false"):
		f.key = idKey{kind: idBool}
		return nil
	default:
		f.ok = false
		return d.skip(1)
	}
}

// prop reads the value of a property field.
func (d *docReader) prop(key string) error {
	e := &d.el
	p := prop{key: key}
	var err error
	switch c := d.peek(); {
	case c == '{' || c == '[':
		p.bad = true
		err = d.skip(1)
	case c == '"':
		var s string
		s, err = d.str()
		p.str, p.off = true, len(e.strs)
		e.strs = append(e.strs, s...)
		p.end = len(e.strs)
	case c == '-' || '0' <= c && c <= '9':
		var lit string
		var integer, ok bool
		lit, integer, err = d.numberLit()
		p.val, ok = numberValue(lit, integer)
		p.bad = !ok
	default:
		p.val, err = d.value()
	}
	e.props = append(e.props, p)
	return err
}

// intern returns the reader's copy of a property name or label.
func (d *docReader) intern(s string) string {
	if c, ok := d.names[s]; ok {
		return c
	}
	c := strings.Clone(s)
	d.names[c] = c
	return c
}

// props builds the parsed element's properties: nil when it has none.
func (d *docReader) props() (core.Props, error) {
	e := &d.el
	if len(e.props) == 0 {
		return nil, nil
	}
	var strs string
	if len(e.strs) > 0 {
		strs = string(e.strs)
	}
	p := make(core.Props, len(e.props))
	for i := range e.props {
		q := &e.props[i]
		switch {
		case q.bad:
			if !slices.ContainsFunc(e.props[i+1:], func(r prop) bool { return r.key == q.key }) {
				return nil, fmt.Errorf("property %q: not a JSON scalar in float64 range", q.key)
			}
		case q.str:
			p[d.intern(q.key)] = core.S(strs[q.off:q.end])
		default:
			p[d.intern(q.key)] = q.val
		}
	}
	return p, nil
}

// check reports an id field that is missing or not a scalar.
func (f idField) check(element, name string) error {
	if !f.set {
		return fmt.Errorf("graphson: %s missing %s", element, name)
	}
	if !f.ok {
		return fmt.Errorf("graphson: %s %s is not a scalar", element, name)
	}
	return nil
}

func (d *docReader) addVertex() error {
	e := &d.el
	if err := e.id.check("vertex", fieldID); err != nil {
		return err
	}
	if _, dup := d.ids[e.id.key]; dup {
		return fmt.Errorf("graphson: duplicate vertex _id %v", e.id.key)
	}
	props, err := d.props()
	if err != nil {
		return fmt.Errorf("graphson: vertex %v %w", e.id.key, err)
	}
	d.ids[e.id.key.clone()] = d.g.AddVertex(props)
	return nil
}

func (d *docReader) addEdge() error {
	e := &d.el
	if err := e.out.check("edge", fieldOutV); err != nil {
		return err
	}
	if err := e.in.check("edge", fieldInV); err != nil {
		return err
	}
	props, err := d.props()
	if err != nil {
		return fmt.Errorf("graphson: edge %w", err)
	}
	label := d.intern(e.label)
	// Edges are added as read until one names a vertex not read yet;
	// from then on they wait for the end of the document, keeping
	// their order.
	if len(d.pending) == 0 {
		src, okSrc := d.ids[e.out.key]
		dst, okDst := d.ids[e.in.key]
		if okSrc && okDst {
			d.g.AddEdge(src, dst, label, props)
			return nil
		}
	}
	d.pending = append(d.pending, pendingEdge{e.out.key.clone(), e.in.key.clone(), label, props})
	return nil
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
