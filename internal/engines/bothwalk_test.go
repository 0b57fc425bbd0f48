package engines

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/race"
)

// TestBothWalkAllocs pins that a DirBoth walk over an engine's
// adjacency costs at most one allocation more than the DirOut walk of
// the same vertex: the in list is walked after the out list, not
// concatenated onto a copy, and an in-edge's loop test reads only its
// endpoints. sparksee and titan are not listed: their DirBoth is a
// modelled bitmap union or a second row scan.
func TestBothWalkAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	g, _, err := datasets.AcquireWith("ldbc", 0.01, datasets.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The vertex with the most edges among those with edges both ways.
	snap, best, bestDeg := g.Snapshot(), -1, 0
	for v := range g.VProps {
		out, in := snap.OutDegree(v), snap.InDegree(v)
		if out > 0 && in > 0 && out+in > bestDeg {
			best, bestDeg = v, out+in
		}
	}
	if best < 0 {
		t.Fatal("ldbc has no vertex with both in- and out-edges")
	}
	for _, name := range []string{"arango", "neo-1.9", "neo-3.0", "orient"} {
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.BulkLoad(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		id := res.VertexIDs[best]
		calls := []struct {
			name string
			run  func(d core.Direction)
		}{
			{"Neighbors", func(d core.Direction) { core.Drain(e.Neighbors(id, d)) }},
			{"IncidentEdges", func(d core.Direction) { core.Drain(e.IncidentEdges(id, d)) }},
			{"Degree", func(d core.Direction) { _, _ = e.Degree(id, d) }},
		}
		for _, c := range calls {
			out := testing.AllocsPerRun(20, func() { c.run(core.DirOut) })
			both := testing.AllocsPerRun(20, func() { c.run(core.DirBoth) })
			t.Logf("%-8s %-13s out %5.1f both %5.1f allocs", name, c.name, out, both)
			if both > out+1 {
				t.Errorf("%s: %s(DirBoth) makes %.1f allocations, DirOut %.1f; want at most one more",
					name, c.name, both, out)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
