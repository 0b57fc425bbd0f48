package gremlin

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engines/sqlg"
)

// propGraph generates a random graph whose vertices and edges carry
// filterable properties: vertex "color" (three values), vertex "n"
// (unique), edge "w" (four values), edge labels a–d.
func propGraph(seed int64) *core.Graph {
	rng := rand.New(rand.NewSource(seed))
	nv := 20 + rng.Intn(20)
	ne := 2*nv + rng.Intn(2*nv)
	g := core.NewGraph(nv, ne)
	colors := []string{"red", "green", "blue"}
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < nv; i++ {
		g.AddVertex(core.Props{
			"n":     core.I(int64(i)),
			"color": core.S(colors[rng.Intn(len(colors))]),
		})
	}
	for i := 0; i < ne; i++ {
		g.AddEdge(rng.Intn(nv), rng.Intn(nv), labels[rng.Intn(len(labels))],
			core.Props{"w": core.I(int64(rng.Intn(4)))})
	}
	return g
}

// TestSourceFusionMatchesScan: a Has/HasLabel directly after V()/E()
// is served by the engine's index surface, and that must yield exactly
// the element sequence a full scan plus a per-element probe yields —
// on every engine configuration, with and without a declared vertex
// property index.
func TestSourceFusionMatchesScan(t *testing.T) {
	ctx := context.Background()
	collect := func(it core.Iter[core.ID], keep func(core.ID) bool) []core.ID {
		var out []core.ID
		for id, ok := it(); ok; id, ok = it() {
			if keep(id) {
				out = append(out, id)
			}
		}
		return out
	}
	for _, seed := range []int64{1, 42, 9000} {
		g := propGraph(seed)
		for name, e := range allEngines() {
			if _, err := e.BulkLoad(g); err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			gr := New(e)
			check := func(phase, what string, tr *Traversal, want []core.ID) {
				t.Helper()
				if !fusedSource(tr.steps) {
					t.Fatalf("%s: %s is not source-fused", name, what)
				}
				got, err := tr.IDs(ctx)
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", name, phase, what, err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s/%s: %s = %v, scan gives %v [seed %d]", name, phase, what, got, want, seed)
				}
			}
			for _, phase := range []string{"no-index", "indexed"} {
				if phase == "indexed" {
					err := e.BuildVertexPropIndex("color")
					if errors.Is(err, core.ErrUnsupported) {
						continue // no declarable index (blaze)
					}
					if err != nil {
						t.Fatalf("%s: index: %v", name, err)
					}
				}
				for _, c := range []string{"red", "green", "blue"} {
					v := core.S(c)
					want := collect(e.Vertices(), func(id core.ID) bool {
						got, ok := e.VertexProp(id, "color")
						return ok && got.Compare(v) == 0
					})
					check(phase, "VHas(color="+c+")", gr.VHas("color", v), want)
					check(phase, "V().Has(color="+c+")", gr.V().Has("color", v), want)
				}
				for w := int64(0); w < 4; w++ {
					v := core.I(w)
					want := collect(e.Edges(), func(id core.ID) bool {
						got, ok := e.EdgeProp(id, "w")
						return ok && got.Compare(v) == 0
					})
					check(phase, fmt.Sprintf("EHas(w=%d)", w), gr.EHas("w", v), want)
					check(phase, fmt.Sprintf("E().Has(w=%d)", w), gr.E().Has("w", v), want)
				}
				for _, l := range []string{"a", "b", "c", "d"} {
					want := collect(e.Edges(), func(id core.ID) bool {
						got, err := e.EdgeLabel(id)
						return err == nil && got == l
					})
					check(phase, "EHasLabel("+l+")", gr.EHasLabel(l), want)
					check(phase, "E().HasLabel("+l+")", gr.E().HasLabel(l), want)
				}
			}
			e.Close()
		}
	}
}

// TestStoreBarrierSetsIdentical: a Store step records exactly the
// elements that reached it — the vertices passing the filter before
// it — whatever the filters after it drop.
func TestStoreBarrierSetsIdentical(t *testing.T) {
	g := propGraph(3)
	for name, e := range allEngines() {
		if _, err := e.BulkLoad(g); err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		set := map[core.ID]struct{}{}
		if _, err := New(e).V().DegreeAtLeast(core.DirBoth, 2).Store(set).Has("color", core.S("red")).Count(context.Background()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := map[core.ID]struct{}{}
		it := e.Vertices()
		for id, ok := it(); ok; id, ok = it() {
			if d, err := e.Degree(id, core.DirBoth); err == nil && d >= 2 {
				want[id] = struct{}{}
			}
		}
		if !maps.Equal(set, want) {
			t.Fatalf("%s: stored %d vertices, %d have degree >= 2", name, len(set), len(want))
		}
		e.Close()
	}
}

// TestExplainByteStable: Explain output is byte-identical across
// repeated calls, across traversal rebuilds, and across engine
// instances loading the same dataset.
func TestExplainByteStable(t *testing.T) {
	ctx := context.Background()
	g := propGraph(7)
	build := func(e core.Engine) *Traversal {
		return New(e).V().DegreeAtLeast(core.DirBoth, 3).Has("color", core.S("red")).Out("a").Dedup().Limit(10)
	}
	render := func() string {
		e := sqlg.New()
		defer e.Close()
		if _, err := e.BulkLoad(g); err != nil {
			t.Fatal(err)
		}
		return build(e).Explain(ctx).String()
	}
	want := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != want {
			t.Fatalf("explain output drifted:\n%s\nvs\n%s", got, want)
		}
	}

	// The plan runs in builder order, with snapshot estimates.
	if strings.Index(want, "has(color=red)") < strings.Index(want, "degreeAtLeast") {
		t.Errorf("plan was reordered:\n%s", want)
	}
	if !strings.HasPrefix(want, "plan (snapshot stats)\n") {
		t.Errorf("plan header wrong:\n%s", want)
	}
}

// TestExplainEstimatesWithoutStats: an engine populated element by
// element (no BulkLoad) has no statistics; Explain must render unknown
// estimates rather than fabricating numbers.
func TestExplainEstimatesWithoutStats(t *testing.T) {
	e := sqlg.New()
	defer e.Close()
	v1, _ := e.AddVertex(core.Props{"color": core.S("red")})
	v2, _ := e.AddVertex(nil)
	if _, err := e.AddEdge(v1, v2, "a", nil); err != nil {
		t.Fatal(err)
	}
	p := New(e).V().Has("color", core.S("red")).Explain(context.Background())
	if p.HasStats {
		t.Fatal("element-wise engine should not carry plan stats")
	}
	out := p.String()
	if !strings.Contains(out, "no stats") || !strings.Contains(out, "?") {
		t.Errorf("expected unknown estimates:\n%s", out)
	}
}

// TestValuesKindFromPlanOutput: after a vertex→edge expansion Values
// must fetch the property from edge properties, even though the
// traversal began with vertices (and vice versa for edge→vertex).
func TestValuesKindFromPlanOutput(t *testing.T) {
	ctx := context.Background()
	e := sqlg.New()
	defer e.Close()
	// Vertices and edges both carry "w", with disjoint value ranges:
	// vertex w ∈ {100,101,102}, edge w ∈ {0,1,2}.
	var vs []core.ID
	for i := 0; i < 3; i++ {
		id, err := e.AddVertex(core.Props{"w": core.I(int64(100 + i))})
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, id)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.AddEdge(vs[i], vs[(i+1)%3], "x", core.Props{"w": core.I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	vals, err := New(e).V().OutE("x").Values(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("got %d edge values, want 3", len(vals))
	}
	for _, v := range vals {
		if v.Compare(core.I(100)) >= 0 {
			t.Fatalf("got %v — Values fetched vertex properties for an edge stream", v)
		}
	}

	vals, err = New(e).E().InV().Dedup().Values(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("got %d vertex values, want 3", len(vals))
	}
	for _, v := range vals {
		if v.Compare(core.I(100)) < 0 {
			t.Fatalf("got %v — Values fetched edge properties for a vertex stream", v)
		}
	}
}
