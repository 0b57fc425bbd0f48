package datasets

import (
	"math"
	"testing"

	"repro/internal/core"
)

// randomTestGraph builds a deterministic pseudo-random multigraph:
// enough structure (many components, skewed degrees, parallel and self
// edges) to exercise every reduction in StatsCSR.
func randomTestGraph(seed int64, n, m int) *core.Graph {
	g := core.NewGraph(n, m)
	rng := newSplitMix(seed)
	labels := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		g.AddVertex(nil)
	}
	for i := 0; i < m; i++ {
		// Bias endpoints into the low range for skew and fragmentation.
		src := int(rng.next() % uint64(n))
		dst := int(rng.next() % uint64(n/2+1))
		g.AddEdge(src, dst, labels[rng.next()%uint64(len(labels))], nil)
	}
	return g
}

// TestStatsGolden pins every Table 3 field for the seven catalog
// datasets at two scales, and for three random multigraphs with
// self-loops and parallel edges. The floats are compared bit for bit:
// the modularity sum order is part of the contract (see StatsCSR), and
// most of these graphs span several shardSize blocks of roots.
func TestStatsGolden(t *testing.T) {
	golden := []struct {
		name  string
		scale float64
		row   Table3Row
	}{
		{"yeast", 0.002, Table3Row{V: 200, E: 600, L: 164, Components: 3, MaxComp: 198, Density: 0.01507537688442211, Modularity: 0, AvgDeg: 6, MaxDeg: 16, Diameter: 6}},
		{"mico", 0.002, Table3Row{V: 500, E: 4000, L: 71, Components: 1, MaxComp: 500, Density: 0.01603206412825651, Modularity: 0, AvgDeg: 16, MaxDeg: 27, Diameter: 5}},
		{"frb-o", 0.002, Table3Row{V: 3800, E: 8600, L: 405, Components: 143, MaxComp: 3089, Density: 0.0005957246366772419, Modularity: 0.28737869118442405, AvgDeg: 4.526315789473684, MaxDeg: 683, Diameter: 11}},
		{"frb-s", 0.002, Table3Row{V: 1000, E: 600, L: 133, Components: 536, MaxComp: 25, Density: 0.0006006006006006006, Modularity: 0.9896333333333334, AvgDeg: 1.2, MaxDeg: 8, Diameter: 9}},
		{"frb-m", 0.002, Table3Row{V: 8000, E: 6200, L: 919, Components: 2693, MaxComp: 1700, Density: 9.68871108888611e-05, Modularity: 0.8868976066597307, AvgDeg: 1.55, MaxDeg: 181, Diameter: 23}},
		{"frb-l", 0.002, Table3Row{V: 56800, E: 62400, L: 2979, Components: 11407, MaxComp: 35522, Density: 1.9341741039380527e-05, Modularity: 0.37833959257890315, AvgDeg: 2.1971830985915495, MaxDeg: 2543, Diameter: 20}},
		{"ldbc", 0.002, Table3Row{V: 1500, E: 12000, L: 15, Components: 1, MaxComp: 1500, Density: 0.00533689126084056, Modularity: 0, AvgDeg: 16, MaxDeg: 2055, Diameter: 4}},
		{"yeast", 0.015, Table3Row{V: 200, E: 600, L: 164, Components: 3, MaxComp: 198, Density: 0.01507537688442211, Modularity: 0, AvgDeg: 6, MaxDeg: 16, Diameter: 6}},
		{"mico", 0.015, Table3Row{V: 1500, E: 16500, L: 104, Components: 1, MaxComp: 1500, Density: 0.00733822548365577, Modularity: 0, AvgDeg: 22, MaxDeg: 37, Diameter: 5}},
		{"frb-o", 0.015, Table3Row{V: 28500, E: 64500, L: 424, Components: 895, MaxComp: 23188, Density: 7.941183531832142e-05, Modularity: 0.28919902313562884, AvgDeg: 4.526315789473684, MaxDeg: 2673, Diameter: 12}},
		{"frb-s", 0.015, Table3Row{V: 7500, E: 4500, L: 676, Components: 3362, MaxComp: 142, Density: 8.001066808907854e-05, Modularity: 0.9932821728395063, AvgDeg: 1.2, MaxDeg: 18, Diameter: 23}},
		{"frb-m", 0.015, Table3Row{V: 60000, E: 46500, L: 2317, Components: 19708, MaxComp: 12473, Density: 1.2916881948032468e-05, Modularity: 0.8961353664007412, AvgDeg: 1.55, MaxDeg: 670, Diameter: 27}},
		{"frb-l", 0.015, Table3Row{V: 426000, E: 468000, L: 3815, Components: 84727, MaxComp: 266346, Density: 2.5788594557634515e-06, Modularity: 0.37667088562897266, AvgDeg: 2.1971830985915495, MaxDeg: 10690, Diameter: 27}},
		{"ldbc", 0.015, Table3Row{V: 2760, E: 22500, L: 15, Components: 1, MaxComp: 2760, Density: 0.0029547567644231526, Modularity: 0, AvgDeg: 16.304347826086957, MaxDeg: 3764, Diameter: 4}},
	}
	bits := func(r Table3Row) [3]uint64 {
		return [3]uint64{math.Float64bits(r.Density), math.Float64bits(r.Modularity), math.Float64bits(r.AvgDeg)}
	}
	for _, tc := range golden {
		got := StatsCSR(ByName(tc.name).Generate(tc.scale).Snapshot(), 0)
		if got != tc.row || bits(got) != bits(tc.row) {
			t.Errorf("%s@%v: StatsCSR = %+v\n  want %+v", tc.name, tc.scale, got, tc.row)
		}
	}
	random := []struct {
		seed int64
		row  Table3Row
	}{
		{1, Table3Row{V: 20000, E: 30000, L: 3, Components: 2365, MaxComp: 17573, Density: 7.500375018750938e-05, Modularity: 0.004195486666667025, AvgDeg: 3, MaxDeg: 15, Diameter: 18}},
		{2, Table3Row{V: 20000, E: 30000, L: 3, Components: 2399, MaxComp: 17542, Density: 7.500375018750938e-05, Modularity: 0.00399589777777809, AvgDeg: 3, MaxDeg: 14, Diameter: 16}},
		{3, Table3Row{V: 20000, E: 30000, L: 3, Components: 2358, MaxComp: 17572, Density: 7.500375018750938e-05, Modularity: 0.004727615555555786, AvgDeg: 3, MaxDeg: 13, Diameter: 15}},
	}
	for _, tc := range random {
		got := StatsCSR(randomTestGraph(tc.seed, 20000, 30000).Snapshot(), 0)
		if got != tc.row || bits(got) != bits(tc.row) {
			t.Errorf("random seed %d: StatsCSR = %+v\n  want %+v", tc.seed, got, tc.row)
		}
	}
}

// TestStatsKnownValues pins the analytics on graphs small enough to
// verify by hand.
func TestStatsKnownValues(t *testing.T) {
	// Path 0-1-2-3 plus isolated vertex 4.
	g := core.NewGraph(5, 3)
	for i := 0; i < 5; i++ {
		g.AddVertex(nil)
	}
	g.AddEdge(0, 1, "e", nil)
	g.AddEdge(1, 2, "e", nil)
	g.AddEdge(2, 3, "e", nil)
	row := Stats(g)
	if row.Components != 2 || row.MaxComp != 4 || row.Diameter != 3 || row.MaxDeg != 2 {
		t.Errorf("path graph: %+v", row)
	}

	// Two same-size components: the largest-component tie must break to
	// the one containing the smallest vertex, so the diameter seed is
	// deterministic. Component {0,3} and {1,2} both have 2 vertices.
	g2 := core.NewGraph(4, 2)
	for i := 0; i < 4; i++ {
		g2.AddVertex(nil)
	}
	g2.AddEdge(3, 0, "e", nil)
	g2.AddEdge(1, 2, "e", nil)
	row2 := Stats(g2)
	if row2.Components != 2 || row2.MaxComp != 2 || row2.Diameter != 1 {
		t.Errorf("tied components: %+v", row2)
	}

	// Self-loop only: one vertex at distance 0 from itself.
	g3 := core.NewGraph(2, 1)
	g3.AddVertex(nil)
	g3.AddVertex(nil)
	g3.AddEdge(0, 0, "self", nil)
	row3 := Stats(g3)
	if row3.Components != 2 || row3.Diameter != 0 {
		t.Errorf("self-loop graph: %+v", row3)
	}

	// Empty graph.
	if row := Stats(core.NewGraph(0, 0)); row.V != 0 || row.Components != 0 {
		t.Errorf("empty graph: %+v", row)
	}
}
