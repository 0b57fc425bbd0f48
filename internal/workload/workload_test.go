package workload

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
)

// buildTestGraph makes a deterministic graph with properties on both
// nodes and edges, several labels, and non-trivial connectivity.
func buildTestGraph() *core.Graph {
	rng := rand.New(rand.NewSource(99))
	g := core.NewGraph(40, 120)
	for i := 0; i < 40; i++ {
		g.AddVertex(core.Props{
			"uid":  core.I(int64(i)),
			"name": core.S(fmt.Sprint("node", i)),
			"grp":  core.I(int64(i % 4)),
		})
	}
	labels := []string{"a", "b", "c"}
	for i := 0; i < 120; i++ {
		g.AddEdge(rng.Intn(40), rng.Intn(40), labels[rng.Intn(3)],
			core.Props{"w": core.I(int64(i % 7))})
	}
	return g
}

// params draws the standard parameter set against the dataset graph and
// translates it via a load result, exactly as the harness does.
func params(res *core.LoadResult) Params {
	return Params{
		V:            res.VertexIDs[3],
		V2:           res.VertexIDs[7],
		E:            res.EdgeIDs[11],
		Label:        "b",
		VPropName:    "grp",
		VPropValue:   core.I(2),
		EPropName:    "w",
		EPropValue:   core.I(3),
		NewPropName:  "fresh",
		NewPropValue: core.S("x"),
		NewVertex:    core.Props{"name": core.S("new")},
		NewEdgeProps: core.Props{"w": core.I(100)},
		K:            4,
		Depth:        2,
	}
}

func TestQueryListMatchesTable2(t *testing.T) {
	qs := Queries()
	if len(qs) != 34 { // Q2..Q35 (Q1 is the loader)
		t.Fatalf("got %d queries, want 34", len(qs))
	}
	seen := map[int]bool{}
	traversals := 0
	for _, q := range qs {
		if q.Num < 2 || q.Num > 35 || seen[q.Num] {
			t.Fatalf("bad or duplicate query number %d", q.Num)
		}
		seen[q.Num] = true
		if q.Name != fmt.Sprintf("Q%d", q.Num) {
			t.Errorf("query %d named %q", q.Num, q.Name)
		}
		if q.Gremlin == "" || q.Desc == "" {
			t.Errorf("%s lacks gremlin/description", q.Name)
		}
		switch q.Cat {
		case CatCreate, CatRead, CatUpdate, CatDelete, CatTraverse:
		default:
			t.Errorf("%s has category %q", q.Name, q.Cat)
		}
		if (q.Cat == CatCreate || q.Cat == CatUpdate || q.Cat == CatDelete) != q.Mutates {
			t.Errorf("%s mutates flag inconsistent with category %s", q.Name, q.Cat)
		}
		if q.Cat == CatTraverse {
			traversals++
		}
	}
	if ByName("Q28") == nil || ByName("Q99") != nil {
		t.Fatal("ByName lookup wrong")
	}
	if traversals != 14 {
		t.Fatalf("traversal queries = %d, want 14", traversals)
	}
}

// TestAllQueriesAgreeAcrossEngines is the core cross-validation: every
// read query must produce the same count on every engine, and every
// mutation must leave every engine in an equivalent state (checked via
// subsequent counts). This is the property the paper's comparative
// methodology silently depends on.
func TestAllQueriesAgreeAcrossEngines(t *testing.T) {
	g := buildTestGraph()
	ctx := context.Background()

	type run struct {
		engine string
		counts map[string]int64
	}
	var runs []run
	for _, name := range engines.Names() {
		counts := map[string]int64{}
		// Each query runs against a fresh load, as the paper's isolation
		// methodology requires (destructive queries would otherwise
		// invalidate later parameters).
		for _, q := range Queries() {
			e, err := engines.New(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.BulkLoad(g)
			if err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			p := params(res)
			r, err := q.Run(ctx, e, p)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q.Name, err)
			}
			counts[q.Name] = r.Count
			// Post-mutation probe: engines must agree on the state a
			// mutation leaves behind.
			if q.Mutates {
				nv, _ := e.CountVertices()
				ne, _ := e.CountEdges()
				counts[q.Name+"-postV"] = nv
				counts[q.Name+"-postE"] = ne
			}
			e.Close()
		}
		runs = append(runs, run{engine: name, counts: counts})
	}
	ref := runs[0]
	for _, r := range runs[1:] {
		for k, v := range ref.counts {
			if r.counts[k] != v {
				t.Errorf("%s: %s = %d, but %s got %d", r.engine, k, r.counts[k], ref.engine, v)
			}
		}
	}
}

func TestReadQueriesAreSideEffectFree(t *testing.T) {
	g := buildTestGraph()
	ctx := context.Background()
	e, _ := engines.New("neo-1.9")
	defer e.Close()
	res, _ := e.BulkLoad(g)
	p := params(res)
	for _, q := range Queries() {
		if q.Mutates {
			continue
		}
		before, _ := e.CountVertices()
		beforeE, _ := e.CountEdges()
		if _, err := q.Run(ctx, e, p); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		after, _ := e.CountVertices()
		afterE, _ := e.CountEdges()
		if before != after || beforeE != afterE {
			t.Fatalf("%s mutated the graph: %d/%d -> %d/%d", q.Name, before, beforeE, after, afterE)
		}
	}
}

func TestSpecificQuerySemantics(t *testing.T) {
	g := core.NewGraph(5, 5)
	for i := 0; i < 5; i++ {
		g.AddVertex(core.Props{"x": core.I(int64(i % 2))})
	}
	// star: 0 -> 1..4 plus 1 -> 0
	for i := 1; i < 5; i++ {
		g.AddEdge(0, i, "s", nil)
	}
	g.AddEdge(1, 0, "back", core.Props{"w": core.I(9)})
	e, _ := engines.New("sparksee")
	defer e.Close()
	res, _ := e.BulkLoad(g)
	ctx := context.Background()

	check := func(name string, p Params, want int64) {
		t.Helper()
		q := ByName(name)
		r, err := q.Run(ctx, e, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Count != want {
			t.Fatalf("%s = %d, want %d", name, r.Count, want)
		}
	}
	check("Q8", Params{}, 5)
	check("Q9", Params{}, 5)
	check("Q10", Params{}, 2)
	check("Q11", Params{VPropName: "x", VPropValue: core.I(1)}, 2)
	check("Q12", Params{EPropName: "w", EPropValue: core.I(9)}, 1)
	check("Q13", Params{Label: "s"}, 4)
	check("Q23", Params{V: res.VertexIDs[0]}, 4)
	check("Q22", Params{V: res.VertexIDs[0]}, 1)
	check("Q28", Params{K: 1}, 5)                          // all nodes have >=1 in-edge
	check("Q29", Params{K: 4}, 1)                          // only the hub
	check("Q31", Params{}, 5)                              // every node has an incoming edge
	check("Q32", Params{V: res.VertexIDs[2], Depth: 2}, 4) // 2 hops reach everything
	check("Q34", Params{V: res.VertexIDs[2], V2: res.VertexIDs[3]}, 3)
}

func TestComplexQueryListMatchesFigure2(t *testing.T) {
	want := []string{
		"max-iid", "max-oid", "create", "city", "company", "university",
		"friend1", "friend2", "friend-tags", "add-tags",
		"friend-of-friend", "triangle", "places",
	}
	qs := ComplexQueries()
	if len(qs) != len(want) {
		t.Fatalf("complex queries = %d, want %d", len(qs), len(want))
	}
	for i, q := range qs {
		if q.Name != want[i] {
			t.Errorf("complex[%d] = %q, want %q", i, q.Name, want[i])
		}
	}
	if ComplexByName("triangle") == nil || ComplexByName("nope") != nil {
		t.Fatal("ComplexByName wrong")
	}
}

// social builds a small ldbc-shaped graph for the complex queries.
func social() (*core.Graph, map[string]int) {
	g := core.NewGraph(0, 0)
	ix := map[string]int{}
	add := func(name, kind string) int {
		i := g.AddVertex(core.Props{"kind": core.S(kind), "name": core.S(name), "uid": core.I(int64(g.NumVertices()))})
		ix[name] = i
		return i
	}
	for _, p := range []string{"alice", "bob", "carol", "dave", "erin"} {
		add(p, "person")
	}
	add("rome", "city")
	add("acme", "company")
	add("mit", "university")
	add("jazz", "tag")
	add("go", "tag")
	knows := func(a, b string) {
		g.AddEdge(ix[a], ix[b], "knows", core.Props{"uid": core.I(int64(g.NumEdges()))})
		g.AddEdge(ix[b], ix[a], "knows", core.Props{"uid": core.I(int64(g.NumEdges()))})
	}
	knows("alice", "bob")
	knows("alice", "carol")
	knows("bob", "carol") // triangle alice-bob-carol
	knows("carol", "dave")
	knows("dave", "erin")
	g.AddEdge(ix["alice"], ix["rome"], "livesIn", nil)
	g.AddEdge(ix["alice"], ix["acme"], "worksAt", nil)
	g.AddEdge(ix["alice"], ix["mit"], "studyAt", nil)
	g.AddEdge(ix["bob"], ix["jazz"], "hasInterest", nil)
	g.AddEdge(ix["carol"], ix["go"], "hasInterest", nil)
	return g, ix
}

func TestComplexQueriesAgreeAcrossEngines(t *testing.T) {
	g, ix := social()
	ctx := context.Background()
	var ref map[string]int64
	for _, name := range engines.Names() {
		e, _ := engines.New(name)
		res, err := e.BulkLoad(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := ComplexParams{
			Person:     res.VertexIDs[ix["alice"]],
			City:       res.VertexIDs[ix["rome"]],
			University: res.VertexIDs[ix["mit"]],
			Company:    res.VertexIDs[ix["acme"]],
			Tags:       []core.ID{res.VertexIDs[ix["jazz"]], res.VertexIDs[ix["go"]]},
			NewPerson:  core.Props{"kind": core.S("person"), "name": core.S("zed")},
			K:          3,
		}
		counts := map[string]int64{}
		for _, q := range ComplexQueries() {
			r, err := q.Run(ctx, e, p)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q.Name, err)
			}
			counts[q.Name] = r.Count
		}
		e.Close()
		if ref == nil {
			ref = counts
			// Spot-check absolute semantics on the first engine.
			if counts["friend1"] != 2 {
				t.Fatalf("friend1 = %d, want 2", counts["friend1"])
			}
			if counts["triangle"] != 1 {
				t.Fatalf("triangle = %d, want 1", counts["triangle"])
			}
			if counts["city"] != 1 || counts["company"] != 1 || counts["university"] != 1 {
				t.Fatalf("profile hops wrong: %v", counts)
			}
			if counts["friend2"] != 1 { // dave (via carol); bob/carol are direct
				t.Fatalf("friend2 = %d, want 1", counts["friend2"])
			}
			continue
		}
		for k, v := range ref {
			if counts[k] != v {
				t.Errorf("%s: %s = %d, want %d", name, k, counts[k], v)
			}
		}
	}
}
