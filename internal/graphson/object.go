package graphson

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
)

// This file is the suite's codec for flat JSON objects of scalars: one
// element of a GraphSON file, or one arango document. It is written by
// hand rather than through encoding/json's reflection, and its output is
// byte for byte what json.Marshal gives for the map[string]any holding
// the same entries, so file sizes and document sizes are unchanged.

// Field is a system field an element's JSON object carries beside its
// properties, such as GraphSON's _id or arango's _key.
type Field struct {
	Name  string
	Value core.Value
}

// AppendObject appends to dst the JSON object holding the properties p
// and the system fields sys, exactly as json.Marshal encodes the
// map[string]any of the same entries: keys in byte order, strings
// HTML-escaped with invalid UTF-8 as \ufffd, numbers in the same
// format. sys must be sorted by name.
//
// It fails, returning dst unchanged, when a property has a non-finite
// float value, which JSON cannot carry, or has the name of one of the
// system fields, which would overwrite it.
func AppendObject(dst []byte, p core.Props, sys ...Field) ([]byte, error) {
	var arr [16]string
	keys := arr[:0]
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	start := len(dst)
	dst = append(dst, '{')
	for len(keys) > 0 || len(sys) > 0 {
		var name string
		var v core.Value
		switch {
		case len(sys) == 0 || len(keys) > 0 && keys[0] < sys[0].Name:
			name, v = keys[0], p[keys[0]]
			keys = keys[1:]
		case len(keys) > 0 && keys[0] == sys[0].Name:
			return dst[:start], fmt.Errorf("graphson: property name %q is reserved", keys[0])
		default:
			name, v = sys[0].Name, sys[0].Value
			sys = sys[1:]
		}
		if len(dst) > start+1 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, name)
		dst = append(dst, ':')
		switch v.Kind() {
		case core.KindString:
			dst = appendString(dst, v.Str())
		case core.KindInt:
			dst = strconv.AppendInt(dst, v.Int(), 10)
		case core.KindFloat:
			f := v.Float()
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return dst[:start], fmt.Errorf("graphson: property %q: unsupported value %v", name, f)
			}
			dst = appendFloat(dst, f)
		case core.KindBool:
			dst = strconv.AppendBool(dst, v.Bool())
		default:
			dst = append(dst, "null"...)
		}
	}
	return append(dst, '}'), nil
}

// appendFloat formats f as encoding/json does: ES6 number-to-string,
// %f-like except below 1e-6 and from 1e21 on, with exponents unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hex = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but not valid JavaScript.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeObject decodes one JSON object of scalars — what AppendObject
// writes — straight into properties, skipping the fields named in
// system. Values read as encoding/json with UseNumber reads them: a
// number written as an integer that fits int64 is an int and any other
// number a float, and invalid UTF-8 or an unpaired surrogate in a
// string becomes U+FFFD. Nested values, trailing data and malformed
// JSON are errors. An object with no properties decodes to nil.
//
// The input is copied once; every key and every string without escapes
// shares that copy, so a decode allocates the map, the copy and one
// string per escaped string.
func DecodeObject(data []byte, system ...string) (core.Props, error) {
	r := objectReader{s: string(data)}
	r.space()
	if !r.eat('{') {
		return nil, r.fail("expected {")
	}
	var p core.Props
	r.space()
	if !r.eat('}') {
		for {
			r.space()
			key, err := r.str()
			if err != nil {
				return nil, err
			}
			r.space()
			if !r.eat(':') {
				return nil, r.fail("expected :")
			}
			r.space()
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			if !slices.Contains(system, key) {
				if p == nil {
					p = make(core.Props)
				}
				p[key] = v
			}
			r.space()
			if r.eat(',') {
				continue
			}
			if r.eat('}') {
				break
			}
			return nil, r.fail("expected , or }")
		}
	}
	r.space()
	if r.i != len(r.s) {
		return nil, r.fail("data after object")
	}
	return p, nil
}

// objectReader is the cursor of DecodeObject over its copy of the
// input, and of Read over its window of the document, which starts
// base bytes into the document.
type objectReader struct {
	s    string
	i    int
	base int64
}

func (r *objectReader) fail(msg string) error {
	return fmt.Errorf("graphson: %s at offset %d", msg, r.base+int64(r.i))
}

func (r *objectReader) space() {
	for r.i < len(r.s) {
		switch r.s[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the input.
func (r *objectReader) peek() byte {
	if r.i < len(r.s) {
		return r.s[r.i]
	}
	return 0
}

func (r *objectReader) eat(c byte) bool {
	if r.i < len(r.s) && r.s[r.i] == c {
		r.i++
		return true
	}
	return false
}

func (r *objectReader) literal(word string) bool {
	if strings.HasPrefix(r.s[r.i:], word) {
		r.i += len(word)
		return true
	}
	return false
}

func (r *objectReader) value() (core.Value, error) {
	if r.i == len(r.s) {
		return core.Nil, r.fail("unexpected end")
	}
	switch c := r.s[r.i]; {
	case c == '"':
		s, err := r.str()
		return core.S(s), err
	case c == '-' || '0' <= c && c <= '9':
		return r.number()
	case r.literal("true"):
		return core.B(true), nil
	case r.literal("false"):
		return core.B(false), nil
	case r.literal("null"):
		return core.Nil, nil
	default:
		return core.Nil, r.fail("expected a scalar value")
	}
}

// digits consumes a run of decimal digits and reports whether there
// was at least one.
func (r *objectReader) digits() bool {
	start := r.i
	for r.i < len(r.s) && '0' <= r.s[r.i] && r.s[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// numberLit reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, the
// JSON number grammar, which is narrower than what strconv accepts, and
// reports whether the literal has neither fraction nor exponent.
func (r *objectReader) numberLit() (lit string, integer bool, err error) {
	start := r.i
	r.eat('-')
	if !r.eat('0') && !r.digits() {
		return "", false, r.fail("malformed number")
	}
	integer = true
	if r.eat('.') {
		integer = false
		if !r.digits() {
			return "", false, r.fail("malformed number")
		}
	}
	if r.eat('e') || r.eat('E') {
		integer = false
		if !r.eat('+') {
			r.eat('-')
		}
		if !r.digits() {
			return "", false, r.fail("malformed number")
		}
	}
	return r.s[start:r.i], integer, nil
}

// numberValue is the value of a number literal: an int when the literal
// is an integer that fits int64, a float otherwise, and false when it
// is beyond float64's range.
func numberValue(lit string, integer bool) (core.Value, bool) {
	if integer {
		if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return core.I(n), true
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	return core.F(f), err == nil
}

// number reads a number as a value; beyond float64's range is an error.
func (r *objectReader) number() (core.Value, error) {
	lit, integer, err := r.numberLit()
	if err != nil {
		return core.Nil, err
	}
	v, ok := numberValue(lit, integer)
	if !ok {
		return core.Nil, fmt.Errorf("graphson: bad number %q", lit)
	}
	return v, nil
}

// maxDepth is encoding/json's nesting limit: at most this many open
// objects and arrays within one decoded value.
const maxDepth = 10000

// skip consumes one JSON value of any kind, nested or not, checking its
// grammar as encoding/json does; numbers are not range-checked. depth
// is the number of objects and arrays the value sits inside, counted
// from the value encoding/json would have decoded.
func (r *objectReader) skip(depth int) error {
	switch c := r.peek(); {
	case c == '{' || c == '[':
		if depth == maxDepth {
			return r.fail("exceeded max depth")
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		r.i++
		r.space()
		if r.eat(end) {
			return nil
		}
		for {
			r.space()
			if c == '{' {
				if _, err := r.str(); err != nil {
					return err
				}
				r.space()
				if !r.eat(':') {
					return r.fail("expected :")
				}
				r.space()
			}
			if err := r.skip(depth + 1); err != nil {
				return err
			}
			r.space()
			if r.eat(',') {
				continue
			}
			if r.eat(end) {
				return nil
			}
			return r.fail("expected , or " + string(end))
		}
	case c == '"':
		_, err := r.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := r.numberLit()
		return err
	case r.literal("true") || r.literal("false") || r.literal("null"):
		return nil
	default:
		return r.fail("expected a value")
	}
}

// str reads a quoted string. Without escapes or invalid UTF-8 the
// result is a substring of the input copy; otherwise it is unescaped
// into a new string exactly as encoding/json unquotes.
func (r *objectReader) str() (string, error) {
	if !r.eat('"') {
		return "", r.fail("expected string")
	}
	start := r.i
	for r.i < len(r.s) {
		c := r.s[r.i]
		if c == '"' {
			r.i++
			return r.s[start : r.i-1], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			r.i++
			continue
		}
		c2, size := utf8.DecodeRuneInString(r.s[r.i:])
		if c2 == utf8.RuneError && size == 1 {
			break
		}
		r.i += size
	}
	var arr [64]byte
	b := append(arr[:0], r.s[start:r.i]...)
	for r.i < len(r.s) {
		switch c := r.s[r.i]; {
		case c == '"':
			r.i++
			return string(b), nil
		case c == '\\':
			if r.i+1 == len(r.s) {
				return "", r.fail("unexpected end")
			}
			switch e := r.s[r.i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				c1 := getu4(r.s[r.i:])
				if c1 < 0 {
					return "", r.fail(`malformed \u escape`)
				}
				r.i += 6
				if utf16.IsSurrogate(c1) {
					if dec := utf16.DecodeRune(c1, getu4(r.s[r.i:])); dec != unicode.ReplacementChar {
						r.i += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					c1 = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, c1)
				continue
			default:
				return "", r.fail("malformed escape")
			}
			r.i += 2
		case c < ' ':
			return "", r.fail("control character in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			r.i++
		default:
			c2, size := utf8.DecodeRuneInString(r.s[r.i:])
			b = utf8.AppendRune(b, c2) // RuneError for an invalid byte
			r.i += size
		}
	}
	return "", r.fail("unterminated string")
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var c rune
	for _, h := range []byte(s[2:6]) {
		switch {
		case '0' <= h && h <= '9':
			h -= '0'
		case 'a' <= h && h <= 'f':
			h = h - 'a' + 10
		case 'A' <= h && h <= 'F':
			h = h - 'A' + 10
		default:
			return -1
		}
		c = c<<4 | rune(h)
	}
	return c
}
