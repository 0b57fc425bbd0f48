package datasets

import (
	"math"
	"testing"

	"repro/internal/core"
)

// benchScale keeps test generation fast while preserving structure.
const benchScale = 0.01

func TestSpecsComplete(t *testing.T) {
	specs := Specs()
	if len(specs) != 7 {
		t.Fatalf("datasets = %d, want 7 (Table 3)", len(specs))
	}
	for _, s := range specs {
		if s.Name == "" || s.Desc == "" || s.Generate == nil {
			t.Fatalf("incomplete spec %+v", s)
		}
		if s.Paper.V == 0 || s.Paper.E == 0 || s.Paper.L == 0 {
			t.Fatalf("%s: missing paper characteristics", s.Name)
		}
	}
	if ByName("ldbc") == nil || ByName("nope") != nil {
		t.Fatal("ByName wrong")
	}
	if len(Names()) != 7 {
		t.Fatal("Names wrong")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, s := range Specs() {
		a := s.Generate(0.002)
		b := s.Generate(0.002)
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: nondeterministic sizes", s.Name)
		}
		for i := range a.EdgeL {
			if a.EdgeL[i].Src != b.EdgeL[i].Src || a.EdgeL[i].Label != b.EdgeL[i].Label {
				t.Fatalf("%s: nondeterministic edges at %d", s.Name, i)
			}
		}
	}
}

func TestScaleTracksPaperSizes(t *testing.T) {
	for _, s := range Specs() {
		g := s.Generate(benchScale)
		wantV := float64(s.Paper.V) * benchScale
		gotV := float64(g.NumVertices())
		// Generators clamp to a minimum viable size; only check datasets
		// whose scaled target is above the clamp region.
		if wantV > 500 && (gotV < wantV*0.5 || gotV > wantV*2.5) {
			t.Errorf("%s: |V| = %.0f, want ≈ %.0f", s.Name, gotV, wantV)
		}
		wantE := float64(s.Paper.E) * benchScale
		gotE := float64(g.NumEdges())
		if wantE > 1000 && (gotE < wantE*0.5 || gotE > wantE*2.5) {
			t.Errorf("%s: |E| = %.0f, want ≈ %.0f", s.Name, gotE, wantE)
		}
	}
}

// TestStructuralShapes verifies the properties that drive the paper's
// findings apart: label cardinality ranking, fragmentation, degree
// skew, and the connectivity of ldbc.
func TestStructuralShapes(t *testing.T) {
	rows := map[string]Table3Row{}
	graphs := map[string]*core.Graph{}
	for _, s := range Specs() {
		g := s.Generate(benchScale)
		graphs[s.Name] = g
		rows[s.Name] = Stats(g)
	}

	// ldbc: exactly 15 labels, single component, modularity 0.
	ldbc := rows["ldbc"]
	if ldbc.L != 15 {
		t.Errorf("ldbc labels = %d, want 15", ldbc.L)
	}
	if ldbc.Components != 1 || ldbc.Modularity != 0 {
		t.Errorf("ldbc components = %d, modularity = %g; want 1, 0", ldbc.Components, ldbc.Modularity)
	}
	// ldbc is the only dataset with edge properties.
	hasEdgeProps := func(g *core.Graph) bool {
		for i := range g.EdgeL {
			if len(g.EdgeL[i].Props) > 0 {
				return true
			}
		}
		return false
	}
	if !hasEdgeProps(graphs["ldbc"]) {
		t.Error("ldbc must carry edge properties")
	}
	for _, name := range []string{"yeast", "mico", "frb-s"} {
		if hasEdgeProps(graphs[name]) {
			t.Errorf("%s must not carry edge properties", name)
		}
	}

	// Freebase family: label-rich and fragmented; frb-s sparser than
	// frb-o (edges < nodes), with very high modularity.
	if rows["frb-s"].L <= rows["mico"].L {
		t.Errorf("frb-s labels (%d) must exceed mico labels (%d)", rows["frb-s"].L, rows["mico"].L)
	}
	if rows["frb-s"].Modularity < 0.9 {
		t.Errorf("frb-s modularity = %g, want > 0.9", rows["frb-s"].Modularity)
	}
	if rows["frb-s"].AvgDeg >= rows["mico"].AvgDeg {
		t.Errorf("frb-s avg degree (%g) must be below mico (%g)", rows["frb-s"].AvgDeg, rows["mico"].AvgDeg)
	}
	if rows["frb-s"].Components < 100 {
		t.Errorf("frb-s components = %d, want heavy fragmentation", rows["frb-s"].Components)
	}

	// Hubs: freebase max degree far above its average.
	fo := rows["frb-o"]
	if float64(fo.MaxDeg) < 20*fo.AvgDeg {
		t.Errorf("frb-o lacks hubs: max %d vs avg %g", fo.MaxDeg, fo.AvgDeg)
	}

	// Yeast is denser than the big graphs by orders of magnitude.
	if rows["yeast"].Density <= rows["mico"].Density {
		t.Errorf("yeast density (%g) must exceed mico (%g)", rows["yeast"].Density, rows["mico"].Density)
	}
}

func TestStatsOnKnownGraph(t *testing.T) {
	// Two triangles plus an isolated vertex.
	g := core.NewGraph(7, 6)
	for i := 0; i < 7; i++ {
		g.AddVertex(nil)
	}
	g.AddEdge(0, 1, "a", nil)
	g.AddEdge(1, 2, "a", nil)
	g.AddEdge(2, 0, "b", nil)
	g.AddEdge(3, 4, "a", nil)
	g.AddEdge(4, 5, "c", nil)
	g.AddEdge(5, 3, "c", nil)
	row := Stats(g)
	if row.V != 7 || row.E != 6 || row.L != 3 {
		t.Fatalf("V/E/L = %d/%d/%d", row.V, row.E, row.L)
	}
	if row.Components != 3 || row.MaxComp != 3 {
		t.Fatalf("components = %d, max = %d", row.Components, row.MaxComp)
	}
	if row.MaxDeg != 2 {
		t.Fatalf("max degree = %d", row.MaxDeg)
	}
	if math.Abs(row.AvgDeg-12.0/7) > 1e-9 {
		t.Fatalf("avg degree = %g", row.AvgDeg)
	}
	// Two equal communities: Q = 1 - 2*(1/2)^2 = 0.5.
	if math.Abs(row.Modularity-0.5) > 1e-9 {
		t.Fatalf("modularity = %g, want 0.5", row.Modularity)
	}
	if row.Diameter != 1 {
		t.Fatalf("diameter = %d, want 1 (triangle)", row.Diameter)
	}
	if d := Stats(core.NewGraph(0, 0)); d.V != 0 {
		t.Fatalf("empty stats = %+v", d)
	}
}

// TestPickWithoutReplacement draws more than the graph holds: Pick
// returns every connected vertex and every edge exactly once.
func TestPickWithoutReplacement(t *testing.T) {
	g := Yeast(0.002)
	connected := 0
	deg := make([]int, g.NumVertices())
	for i := range g.EdgeL {
		deg[g.EdgeL[i].Src]++
		deg[g.EdgeL[i].Dst]++
	}
	for _, d := range deg {
		if d > 0 {
			connected++
		}
	}
	p := Pick(g, 5, 10*g.NumEdges())
	if len(p.Vertices) != connected || len(p.Edges) != g.NumEdges() {
		t.Fatalf("picked %d vertices and %d edges, want %d and %d", len(p.Vertices), len(p.Edges), connected, g.NumEdges())
	}
	for what, xs := range map[string][]int{"vertex": p.Vertices, "edge": p.Edges} {
		seen := map[int]bool{}
		for _, x := range xs {
			if seen[x] {
				t.Fatalf("%s %d picked twice", what, x)
			}
			seen[x] = true
		}
	}
	for _, v := range p.Vertices {
		if deg[v] == 0 {
			t.Fatalf("picked isolated vertex %d", v)
		}
	}
}

func TestPickDeterministicAndConnected(t *testing.T) {
	g := MiCo(0.005)
	p1 := Pick(g, 123, 20)
	p2 := Pick(g, 123, 20)
	if len(p1.Vertices) != 20 || len(p1.Edges) != 20 {
		t.Fatalf("pick sizes = %d/%d", len(p1.Vertices), len(p1.Edges))
	}
	for i := range p1.Vertices {
		if p1.Vertices[i] != p2.Vertices[i] || p1.Edges[i] != p2.Edges[i] {
			t.Fatal("Pick not deterministic")
		}
	}
	deg := make([]int, g.NumVertices())
	for i := range g.EdgeL {
		deg[g.EdgeL[i].Src]++
		deg[g.EdgeL[i].Dst]++
	}
	for _, v := range p1.Vertices {
		if deg[v] == 0 {
			t.Fatalf("picked isolated vertex %d", v)
		}
	}
	p3 := Pick(g, 999, 20)
	same := true
	for i := range p1.Vertices {
		if p1.Vertices[i] != p3.Vertices[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical picks")
	}
}

func TestLDBCComplexQuerySubstrate(t *testing.T) {
	// The complex workload needs persons, places, companies,
	// universities and tags, plus knows/livesIn/worksAt/studyAt/
	// hasInterest edges.
	g := LDBC(benchScale)
	kinds := map[string]int{}
	for _, p := range g.VProps {
		kinds[p["kind"].Str()]++
	}
	for _, k := range []string{"person", "place", "company", "university", "tag", "forum", "post"} {
		if kinds[k] == 0 {
			t.Errorf("ldbc lacks %s nodes", k)
		}
	}
	labels := map[string]bool{}
	for i := range g.EdgeL {
		labels[g.EdgeL[i].Label] = true
	}
	for _, l := range ldbcLabels {
		if !labels[l] {
			t.Errorf("ldbc lacks %s edges", l)
		}
	}
}
