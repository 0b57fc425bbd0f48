package graphson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
)

// marshalObject is the reference AppendObject must match byte for
// byte: json.Marshal of the map[string]any holding the same entries.
func marshalObject(t testing.TB, p core.Props, sys ...Field) []byte {
	t.Helper()
	m := make(map[string]any, len(p)+len(sys))
	for _, f := range sys {
		m[f.Name] = plain(f.Value)
	}
	for k, v := range p {
		m[k] = plain(v)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func plain(v core.Value) any {
	switch v.Kind() {
	case core.KindString:
		return v.Str()
	case core.KindInt:
		return v.Int()
	case core.KindFloat:
		return v.Float()
	case core.KindBool:
		return v.Bool()
	}
	return nil
}

// awkward holds the values whose JSON encoding has special cases.
var awkward = core.Props{
	"html":         core.S("<a href='x'>&amp;</a>"),
	"controls":     core.S("\x00\x01\b\f\n\r\t\x1f\x7f end"),
	"quotes":       core.S(`say "hi" \ back/slash`),
	"invalid-utf8": core.S("a\xffb\xfe\xed\xa0\x80c\xc3"),
	"separators":   core.S("line\u2028para\u2029end"),
	"unicode":      core.S("héllo 世界 🎉 \ufffd"),
	"":             core.S("empty key"),
	"<key>\xff":    core.S(""),
	"f-1e21":       core.F(1e21),
	"f-below-1e21": core.F(999999999999999900000),
	"f-1e-6":       core.F(1e-6),
	"f-below-1e-6": core.F(9.999999999999999e-7),
	"f-1e-7":       core.F(1e-7),
	"f-tiny":       core.F(5e-324),
	"f-max":        core.F(math.MaxFloat64),
	"f-neg-big":    core.F(-1.5e300),
	"f-neg-zero":   core.F(math.Copysign(0, -1)),
	"f-zero":       core.F(0),
	"f-integral":   core.F(3),
	"f-plain":      core.F(123.456),
	"i-min":        core.I(math.MinInt64),
	"i-max":        core.I(math.MaxInt64),
	"i-zero":       core.I(0),
	"true":         core.B(true),
	"false":        core.B(false),
	"null":         core.Nil,
}

func TestAppendObjectMatchesMarshal(t *testing.T) {
	sys := []Field{{"_id", core.I(7)}, {"_label", core.S("a<b")}, {"_type", core.S("edge")}}
	check := func(name string, p core.Props, sys ...Field) {
		got, err := AppendObject([]byte("prefix"), p, sys...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := marshalObject(t, p, sys...); !bytes.Equal(got[len("prefix"):], want) || string(got[:6]) != "prefix" {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	check("all", awkward)
	check("all+sys", awkward, sys...)
	check("empty", nil)
	check("sys only", nil, sys...)
	for k, v := range awkward {
		check(fmt.Sprintf("%q", k), core.Props{k: v})
		check(fmt.Sprintf("%q+sys", k), core.Props{k: v}, sys...)
	}
	// More properties than AppendObject's on-stack key array holds.
	many := core.Props{}
	for i := 0; i < 40; i++ {
		many[fmt.Sprint("k", i)] = core.I(int64(i))
	}
	check("many", many, sys...)
}

func TestAppendObjectRefuses(t *testing.T) {
	sys := []Field{{"_id", core.I(1)}, {"_type", core.S("vertex")}}
	for name, p := range map[string]core.Props{
		"NaN":       {"a": core.S("x"), "f": core.F(math.NaN())},
		"+Inf":      {"f": core.F(math.Inf(1))},
		"-Inf":      {"f": core.F(math.Inf(-1))},
		"_id":       {"_id": core.I(2)},
		"_type":     {"z": core.I(1), "_type": core.S("edge")},
		"NaN first": {"f": core.F(math.NaN()), "_type": core.S("x")},
	} {
		got, err := AppendObject([]byte("keep"), p, sys...)
		if err == nil {
			t.Errorf("%s: no error", name)
		}
		if string(got) != "keep" {
			t.Errorf("%s: appended %q on error", name, got)
		}
	}
	// A name reserved only as another object's system field is fine.
	if _, err := AppendObject(nil, core.Props{"_outV": core.I(1), "_x": core.I(2)}, sys...); err != nil {
		t.Fatal(err)
	}
}

// legacyDecode is the decode path DecodeObject replaced: encoding/json
// with UseNumber into map[string]any, then each value into core.Value.
func legacyDecode(data []byte) (core.Props, error) {
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	var p core.Props
	for k, v := range m {
		val, err := toValue(v)
		if err != nil {
			return nil, err
		}
		if p == nil {
			p = core.Props{}
		}
		p[k] = val
	}
	return p, nil
}

// flatObject reports whether encoding/json accepts data as one JSON
// object whose values are all scalars, every number within float64's
// range: the inputs DecodeObject must accept. (A number out of range
// is an error even when a later duplicate key would have replaced it.)
func flatObject(data []byte) bool {
	if !json.Valid(data) {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		_, _ = dec.Token() // the key
		switch tok, _ := dec.Token(); v := tok.(type) {
		case json.Delim:
			return false
		case json.Number:
			if _, err := v.Float64(); err != nil {
				return false
			}
		}
	}
	return true
}

// sameProps compares decoded properties as JSON values: a float with
// an integral value is written without a fraction and so reads back as
// an int, under encoding/json as under this codec.
func sameProps(a, b core.Props) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return false
		}
		if va == vb {
			continue
		}
		if va.Kind() == core.KindFloat && vb.Kind() == core.KindInt && float64(vb.Int()) == va.Float() {
			continue
		}
		return false
	}
	return true
}

func TestDecodeObjectMatchesLegacy(t *testing.T) {
	enc, err := AppendObject(nil, awkward)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{
		string(enc),
		`{}`,
		` { "a" : 1 , "b":"x" } ` + "\n\t\r",
		`{"a":"\u00e9\u4e16\ud83c\udf89","b":"\/\b\f\n\r\t\"\\"}`,
		`{"lone-high":"\ud800","lone-low":"\udc00x","swapped":"\udc00\ud800","high-then-ascii":"\ud800\u0041","high-then-bad":"\ud800\\u12"}`,
		"{\"raw\":\"a\xffb\xed\xa0\x80\xc3\"}",
		`{"i":-0,"f":1.0,"e":1E+2,"e2":1e-2,"big":12345678901234567890,"neg":-9223372036854775808,"tiny":1e-400}`,
		`{"dup":1,"dup":"two"}`,
		`{"_key":1,"_x":2}`,
		`{"t":true,"f":false,"n":null}`,
	}
	for _, in := range inputs {
		want, err := legacyDecode([]byte(in))
		if err != nil {
			t.Fatalf("%s: legacy: %v", in, err)
		}
		got, err := DecodeObject([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", in, got, want)
		}
	}
	// The awkward values survive a round trip (floats as JSON numbers).
	got, _ := DecodeObject(enc)
	want := awkward.Clone()
	want["invalid-utf8"] = core.S("a\ufffdb\ufffd\ufffd\ufffd\ufffdc\ufffd")
	delete(want, "<key>\xff")
	want["<key>\ufffd"] = core.S("")
	if !sameProps(want, got) {
		t.Errorf("round trip:\n got %v\nwant %v", got, want)
	}
}

func TestDecodeObjectSkipsSystemFields(t *testing.T) {
	p, err := DecodeObject([]byte(`{"_from":1,"_key":2,"_x":3,"a":4}`), "_key", "_from")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p["_x"] != core.I(3) || p["a"] != core.I(4) {
		t.Fatalf("props = %v", p)
	}
	if p, err := DecodeObject([]byte(`{"_key":2}`), "_key"); err != nil || p != nil {
		t.Fatalf("system fields only = %v, %v; want nil", p, err)
	}
}

func TestDecodeObjectRejects(t *testing.T) {
	for _, in := range []string{
		``, ` `, `null`, `[]`, `1`, `"s"`, `{`, `{"a"`, `{"a":`, `{"a":1`, `{"a":1,}`,
		`{"a" 1}`, `{a:1}`, `{"a":1}x`, `{"a":1}{}`, `{,}`, `{"a":[1]}`, `{"a":{}}`,
		`{"a":01}`, `{"a":1.}`, `{"a":.5}`, `{"a":+1}`, `{"a":-}`, `{"a":1e}`, `{"a":1e+}`,
		`{"a":0x1}`, `{"a":1e400}`, `{"a":-1e400}`, `{"a":NaN}`, `{"a":Infinity}`,
		`{"a":tru}`, `{"a":truex}`, `{"a":nul}`, "{\"a\":\"\x01\"}", `{"a":"\q"}`,
		`{"a":"\u12"}`, `{"a":"\u12g4"}`, `{"a":"abc`, `{"a":"\`, `{1:1}`,
	} {
		if p, err := DecodeObject([]byte(in)); err == nil {
			t.Errorf("%q accepted: %v", in, p)
		}
		if p, err := legacyDecode([]byte(in)); err == nil && flatObject([]byte(in)) {
			t.Errorf("%q: the legacy path accepts it: %v", in, p)
		}
	}
}

// TestObjectAllocs: encoding into a reused buffer allocates nothing for
// up to eight properties; decoding allocates the map, one copy of the
// input that keys and plain strings share, and one string per escaped
// string.
func TestObjectAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := core.Props{
		"name": core.S("ann"), "city": core.S("Zürich north"), "age": core.I(31),
		"score": core.F(0.5), "ok": core.B(true), "none": core.Nil, "big": core.F(1e300),
		"id": core.I(-7),
	}
	sys := []Field{{"_id", core.I(12)}, {"_inV", core.I(3)}, {"_label", core.S("knows")}, {"_outV", core.I(4)}, {"_type", core.S("edge")}}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = AppendObject(buf[:0], p, sys...)
	}); n != 0 {
		t.Errorf("AppendObject: %v allocs, want 0", n)
	}
	doc := append([]byte(nil), buf...)

	var sink core.Props
	mapAllocs := testing.AllocsPerRun(200, func() {
		m := make(core.Props)
		for _, k := range []string{"name", "city", "age", "score", "ok", "none", "big", "id"} {
			m[k] = core.Nil
		}
		sink = m
	})
	if n := testing.AllocsPerRun(200, func() {
		sink, _ = DecodeObject(doc, "_id", "_inV", "_label", "_outV", "_type")
	}); n > mapAllocs+1 {
		t.Errorf("DecodeObject: %v allocs, want at most %v (map) + 1 (copy)", n, mapAllocs)
	}
	escaped := []byte(`{"a":"tab\there","b":"\u00e9","c":"plain","d":1}`)
	if n := testing.AllocsPerRun(200, func() {
		sink, _ = DecodeObject(escaped)
	}); n > mapAllocs+1+2 {
		t.Errorf("DecodeObject with two escaped strings: %v allocs, want at most %v", n, mapAllocs+3)
	}
	_ = sink
}
