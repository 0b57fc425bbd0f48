package engines

import (
	"reflect"
	"testing"

	"repro/internal/engines/enginetest"
)

// spaceGolden is each configuration's SpaceUsage().Breakdown after
// bulk-loading enginetest.SampleGraph(), and again after building a
// vertex-property index on "name". The values were captured before the
// dictionaries and the attribute index moved into internal/engines/kit
// and are exact: the repository benchmark bounds space amplification at
// 0.02 and the number is deterministic, so accounting drift must fail
// here, in a unit test, before it reaches the benchmark. Change a value
// only together with the accounting change that explains it.
var spaceGolden = map[string]struct{ loaded, indexed map[string]int64 }{
	"arango": {
		loaded:  map[string]int64{"edge-documents": 475, "edge-hash-index": 640, "vertex-documents": 276},
		indexed: map[string]int64{"edge-documents": 475, "edge-hash-index": 640, "vertex-documents": 276},
	},
	"blaze": { // no user-controlled indexes: the build is refused
		loaded:  map[string]int64{"journal(preallocated)": 1048576, "osp-index": 3456, "pos-index": 3456, "spo-index": 3456, "term-dictionary": 746},
		indexed: map[string]int64{"journal(preallocated)": 1048576, "osp-index": 3456, "pos-index": 3456, "spo-index": 3456, "term-dictionary": 746},
	},
	"neo-1.9": {
		loaded:  map[string]int64{"attribute-indexes": 0, "node-store": 102, "property-store": 308, "relationship-store": 488, "string-store": 36, "token-stores": 183},
		indexed: map[string]int64{"attribute-indexes": 252, "node-store": 102, "property-store": 308, "relationship-store": 488, "string-store": 36, "token-stores": 183},
	},
	"neo-3.0": {
		loaded:  map[string]int64{"attribute-indexes": 0, "group-store": 319, "node-store": 102, "property-store": 308, "relationship-store": 488, "string-store": 36, "token-stores": 183},
		indexed: map[string]int64{"attribute-indexes": 252, "group-store": 319, "node-store": 102, "property-store": 308, "relationship-store": 488, "string-store": 36, "token-stores": 183},
	},
	"orient": {
		loaded:  map[string]int64{"edge-clusters": 666, "sbtree-indexes": 0, "schema": 183, "vertex-cluster": 416},
		indexed: map[string]int64{"edge-clusters": 666, "sbtree-indexes": 252, "schema": 183, "vertex-cluster": 416},
	},
	"sparksee": {
		loaded:  map[string]int64{"attribute-maps": 2476, "label-bitmaps": 599, "object-bitmaps": 220, "relationship-bitmaps": 1632},
		indexed: map[string]int64{"attribute-maps": 2476, "label-bitmaps": 599, "object-bitmaps": 220, "relationship-bitmaps": 1632},
	},
	"sqlg": {
		loaded:  map[string]int64{"edge-tables": 2274, "vertex-table": 613},
		indexed: map[string]int64{"edge-tables": 2274, "vertex-table": 979},
	},
	"titan-0.5": {
		loaded:  map[string]int64{"graph-indexes": 0, "lsm-store": 1106, "schema": 183},
		indexed: map[string]int64{"graph-indexes": 252, "lsm-store": 1106, "schema": 183},
	},
	"titan-1.0": {
		loaded:  map[string]int64{"graph-indexes": 0, "lsm-store": 1106, "schema": 183},
		indexed: map[string]int64{"graph-indexes": 252, "lsm-store": 1106, "schema": 183},
	},
}

func TestSpaceUsageGolden(t *testing.T) {
	for _, name := range Names() {
		want, ok := spaceGolden[name]
		if !ok {
			t.Errorf("%s: no golden space breakdown; capture one", name)
			continue
		}
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.BulkLoad(enginetest.SampleGraph()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := e.SpaceUsage().Breakdown; !reflect.DeepEqual(got, want.loaded) {
			t.Errorf("%s loaded:\n got %v\nwant %v", name, got, want.loaded)
		}
		_ = e.BuildVertexPropIndex("name") // refusal (blaze) is part of the golden
		if got := e.SpaceUsage().Breakdown; !reflect.DeepEqual(got, want.indexed) {
			t.Errorf("%s indexed:\n got %v\nwant %v", name, got, want.indexed)
		}
		e.Close()
	}
}
