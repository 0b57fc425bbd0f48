package titan

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestOperationsAcrossFlushBoundaries interleaves graph mutations with
// forced memtable flushes, so every read path must merge the memtable
// with multiple runs and resolve tombstones across them.
func TestOperationsAcrossFlushBoundaries(t *testing.T) {
	for _, v := range []Version{V05, V10} {
		t.Run(fmt.Sprint("v", v), func(t *testing.T) {
			e := New(v)
			defer e.Close()
			hub, _ := e.AddVertex(core.Props{"name": core.S("hub")})
			var spokes []core.ID
			var edges []core.ID
			for i := 0; i < 12; i++ {
				s, _ := e.AddVertex(core.Props{"i": core.I(int64(i))})
				spokes = append(spokes, s)
				eid, _ := e.AddEdge(hub, s, fmt.Sprint("l", i%3), core.Props{"w": core.I(int64(i))})
				edges = append(edges, eid)
				if i%4 == 3 {
					e.kv.Flush()
				}
			}
			// Delete a few edges: tombstones land in a newer generation
			// than the columns they shadow.
			for _, k := range []int{1, 5, 9} {
				if err := e.RemoveEdge(edges[k]); err != nil {
					t.Fatal(err)
				}
			}
			e.kv.Flush()
			if d, _ := e.Degree(hub, core.DirOut); d != 9 {
				t.Fatalf("degree after cross-run tombstones = %d, want 9", d)
			}
			// Update a property that lives in an old run; the new value
			// must shadow it.
			if err := e.SetVertexProp(spokes[0], "i", core.I(100)); err != nil {
				t.Fatal(err)
			}
			if got, _ := e.VertexProp(spokes[0], "i"); got != core.I(100) {
				t.Fatalf("prop across runs = %v", got)
			}
			// Flush until the run count reaches CompactAt and a full
			// compaction merges everything, then re-verify.
			_, before, _, _, _ := e.kv.Stats()
			for i := 0; ; i++ {
				if _, compacts, runs, _, _ := e.kv.Stats(); compacts > before {
					if runs != 1 {
						t.Fatalf("%d runs after compaction, want 1", runs)
					}
					break
				}
				if i == 100 {
					t.Fatal("100 flushes never triggered a compaction")
				}
				if err := e.SetVertexProp(hub, "n", core.I(int64(i))); err != nil {
					t.Fatal(err)
				}
				e.kv.Flush()
			}
			if d, _ := e.Degree(hub, core.DirOut); d != 9 {
				t.Fatalf("degree after compaction = %d", d)
			}
			if n, _ := e.CountEdges(); n != 9 {
				t.Fatalf("edge count after compaction = %d", n)
			}
			for i, eid := range edges {
				want := i != 1 && i != 5 && i != 9
				if e.HasEdge(eid) != want {
					t.Fatalf("edge %d present=%v want %v", i, e.HasEdge(eid), want)
				}
			}
		})
	}
}

// TestAdjacencyDeltaRoundTrip checks the varint delta encoding for
// neighbours far above and below the row id.
func TestAdjacencyDeltaRoundTrip(t *testing.T) {
	for _, pair := range [][2]core.ID{{0, 1000}, {1000, 0}, {5, 5}, {7, 6}} {
		key := edgeColKey(pair[0], colOutEdge, 3, pair[1], 42)
		tok, other, eid := parseEdgeCol(pair[0], key)
		if tok != 3 || other != pair[1] || eid != 42 {
			t.Fatalf("round trip (%d,%d): got tok=%d other=%d eid=%d", pair[0], pair[1], tok, other, eid)
		}
	}
}
