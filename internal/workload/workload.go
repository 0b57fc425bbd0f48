// Package workload defines the paper's test queries: the 35 primitive
// operation classes of Table 2 (the micro-benchmark) and the 13
// LDBC-derived complex queries of Figure 2 (the macro comparison).
//
// Every query is written once, against the gremlin traversal layer, and
// parameterized by a Params value that the harness derives from the
// *dataset* (not from any engine), so the same logical objects are
// queried in every system — the fairness requirement of Section 5.
package workload

import (
	"context"

	"repro/internal/core"
	"repro/internal/gremlin"
)

// Category classifies queries as in Table 2.
type Category string

// Query categories (Table 2's L/C/R/U/D/T).
const (
	CatLoad     Category = "L"
	CatCreate   Category = "C"
	CatRead     Category = "R"
	CatUpdate   Category = "U"
	CatDelete   Category = "D"
	CatTraverse Category = "T"
)

// Params carries the pre-drawn arguments of one query execution. The
// harness fills only the fields a query needs, translated to engine IDs
// through the engine's LoadResult.
type Params struct {
	V, V2 core.ID // vertex arguments
	E     core.ID // edge argument

	Label string // edge label argument

	VPropName  string     // existing vertex property name
	VPropValue core.Value // matching value
	EPropName  string     // existing edge property name
	EPropValue core.Value

	NewPropName  string // property to create/update
	NewPropValue core.Value
	NewVertex    core.Props // properties for created vertices
	NewEdgeProps core.Props // properties for created edges

	K     int64 // degree threshold (Q28–Q30)
	Depth int   // BFS depth (Q32, Q33)
	Fanum int   // number of edges for Q7
}

// Result is a query outcome, comparable across engines for validation.
type Result struct {
	// Count is the number of elements returned or affected.
	Count int64
}

// Query is one of the 35 primitive operations.
type Query struct {
	Num     int      // Table 2 number (2..35; 1 is the loader)
	Name    string   // "Q2", ...
	Gremlin string   // the paper's Gremlin 2.6 phrasing
	Desc    string   // Table 2 description
	Cat     Category // L/C/R/U/D/T
	Mutates bool     // whether the query changes the database
	Run     func(ctx context.Context, e core.Engine, p Params) (Result, error)
}

// Queries returns the micro-benchmark queries in Table 2 order.
// Q1 (bulk load) is executed by the harness itself, since — as in the
// paper — loading goes through per-engine bulk paths and is measured
// separately (Figure 3(a)).
func Queries() []Query {
	return []Query{
		{
			Num: 2, Name: "Q2", Cat: CatCreate, Mutates: true,
			Gremlin: "g.addVertex(p[])", Desc: "Create new node with properties p",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				_, err := e.AddVertex(p.NewVertex)
				return Result{Count: 1}, err
			},
		},
		{
			Num: 3, Name: "Q3", Cat: CatCreate, Mutates: true,
			Gremlin: "g.addEdge(v1, v2, l)", Desc: "Add edge from v1 to v2",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				_, err := e.AddEdge(p.V, p.V2, p.Label, nil)
				return Result{Count: 1}, err
			},
		},
		{
			Num: 4, Name: "Q4", Cat: CatCreate, Mutates: true,
			Gremlin: "g.addEdge(v1, v2, l, p[])", Desc: "Add edge with properties p",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				_, err := e.AddEdge(p.V, p.V2, p.Label, p.NewEdgeProps)
				return Result{Count: 1}, err
			},
		},
		{
			Num: 5, Name: "Q5", Cat: CatCreate, Mutates: true,
			Gremlin: "v.setProperty(Name, Value)", Desc: "Add property Name=Value to node v",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.SetVertexProp(p.V, p.NewPropName, p.NewPropValue)
			},
		},
		{
			Num: 6, Name: "Q6", Cat: CatCreate, Mutates: true,
			Gremlin: "e.setProperty(Name, Value)", Desc: "Add property Name=Value to edge e",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.SetEdgeProp(p.E, p.NewPropName, p.NewPropValue)
			},
		},
		{
			Num: 7, Name: "Q7", Cat: CatCreate, Mutates: true,
			Gremlin: "g.addVertex(...); g.addEdge(...)", Desc: "Add a new node, then edges to it",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				nv, err := e.AddVertex(p.NewVertex)
				if err != nil {
					return Result{}, err
				}
				if _, err := e.AddEdge(nv, p.V, p.Label, nil); err != nil {
					return Result{}, err
				}
				if _, err := e.AddEdge(p.V2, nv, p.Label, nil); err != nil {
					return Result{}, err
				}
				return Result{Count: 3}, nil
			},
		},
		{
			Num: 8, Name: "Q8", Cat: CatRead,
			Gremlin: "g.V.count()", Desc: "Total number of nodes",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).V().Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 9, Name: "Q9", Cat: CatRead,
			Gremlin: "g.E.count()", Desc: "Total number of edges",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).E().Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 10, Name: "Q10", Cat: CatRead,
			Gremlin: "g.E.label.dedup()", Desc: "Existing edge labels (no duplicates)",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				ls, err := gremlin.New(e).E().DistinctLabels(ctx)
				return Result{Count: int64(len(ls))}, err
			},
		},
		{
			Num: 11, Name: "Q11", Cat: CatRead,
			Gremlin: "g.V.has(Name, Value)", Desc: "Nodes with property Name=Value",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).VHas(p.VPropName, p.VPropValue).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 12, Name: "Q12", Cat: CatRead,
			Gremlin: "g.E.has(Name, Value)", Desc: "Edges with property Name=Value",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).EHas(p.EPropName, p.EPropValue).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 13, Name: "Q13", Cat: CatRead,
			Gremlin: "g.E.has('label', l)", Desc: "Edges with label l",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).EHasLabel(p.Label).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 14, Name: "Q14", Cat: CatRead,
			Gremlin: "g.V(id)", Desc: "The node with identifier id",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).VID(p.V).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 15, Name: "Q15", Cat: CatRead,
			Gremlin: "g.E(id)", Desc: "The edge with identifier id",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).EID(p.E).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 16, Name: "Q16", Cat: CatUpdate, Mutates: true,
			Gremlin: "v.setProperty(Name, Value)", Desc: "Update property Name for vertex v",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.SetVertexProp(p.V, p.VPropName, p.NewPropValue)
			},
		},
		{
			Num: 17, Name: "Q17", Cat: CatUpdate, Mutates: true,
			Gremlin: "e.setProperty(Name, Value)", Desc: "Update property Name for edge e",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.SetEdgeProp(p.E, p.EPropName, p.NewPropValue)
			},
		},
		{
			Num: 18, Name: "Q18", Cat: CatDelete, Mutates: true,
			Gremlin: "g.removeVertex(id)", Desc: "Delete node identified by id",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.RemoveVertex(p.V)
			},
		},
		{
			Num: 19, Name: "Q19", Cat: CatDelete, Mutates: true,
			Gremlin: "g.removeEdge(id)", Desc: "Delete edge identified by id",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.RemoveEdge(p.E)
			},
		},
		{
			Num: 20, Name: "Q20", Cat: CatDelete, Mutates: true,
			Gremlin: "v.removeProperty(Name)", Desc: "Remove node property Name from v",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.RemoveVertexProp(p.V, p.VPropName)
			},
		},
		{
			Num: 21, Name: "Q21", Cat: CatDelete, Mutates: true,
			Gremlin: "e.removeProperty(Name)", Desc: "Remove edge property Name from e",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				return Result{Count: 1}, e.RemoveEdgeProp(p.E, p.EPropName)
			},
		},
		{
			Num: 22, Name: "Q22", Cat: CatTraverse,
			Gremlin: "v.in()", Desc: "Nodes adjacent to v via incoming edges",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).VID(p.V).In().Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 23, Name: "Q23", Cat: CatTraverse,
			Gremlin: "v.out()", Desc: "Nodes adjacent to v via outgoing edges",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).VID(p.V).Out().Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 24, Name: "Q24", Cat: CatTraverse,
			Gremlin: "v.both('l')", Desc: "Nodes adjacent to v via edges labeled l",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).VID(p.V).Both(p.Label).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 25, Name: "Q25", Cat: CatTraverse,
			Gremlin: "v.inE.label.dedup()", Desc: "Labels of incoming edges of v",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				ls, err := gremlin.New(e).VID(p.V).InE().DistinctLabels(ctx)
				return Result{Count: int64(len(ls))}, err
			},
		},
		{
			Num: 26, Name: "Q26", Cat: CatTraverse,
			Gremlin: "v.outE.label.dedup()", Desc: "Labels of outgoing edges of v",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				ls, err := gremlin.New(e).VID(p.V).OutE().DistinctLabels(ctx)
				return Result{Count: int64(len(ls))}, err
			},
		},
		{
			Num: 27, Name: "Q27", Cat: CatTraverse,
			Gremlin: "v.bothE.label.dedup()", Desc: "Labels of edges of v",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				ls, err := gremlin.New(e).VID(p.V).BothE().DistinctLabels(ctx)
				return Result{Count: int64(len(ls))}, err
			},
		},
		{
			Num: 28, Name: "Q28", Cat: CatTraverse,
			Gremlin: "g.V.filter{it.inE.count()>=k}", Desc: "Nodes of at least k-incoming-degree",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).V().DegreeAtLeast(core.DirIn, p.K).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 29, Name: "Q29", Cat: CatTraverse,
			Gremlin: "g.V.filter{it.outE.count()>=k}", Desc: "Nodes of at least k-outgoing-degree",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).V().DegreeAtLeast(core.DirOut, p.K).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 30, Name: "Q30", Cat: CatTraverse,
			Gremlin: "g.V.filter{it.bothE.count()>=k}", Desc: "Nodes of at least k-degree",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).V().DegreeAtLeast(core.DirBoth, p.K).Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 31, Name: "Q31", Cat: CatTraverse,
			Gremlin: "g.V.out.dedup()", Desc: "Nodes having an incoming edge",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				n, err := gremlin.New(e).V().Out().Dedup().Count(ctx)
				return Result{Count: n}, err
			},
		},
		{
			Num: 32, Name: "Q32", Cat: CatTraverse,
			Gremlin: "v.as('i').both().except(vs).store(vs).loop('i')",
			Desc:    "Nodes reached via breadth-first traversal from v",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				vs, err := gremlin.BFS(ctx, e, p.V, p.Depth)
				return Result{Count: int64(len(vs))}, err
			},
		},
		{
			Num: 33, Name: "Q33", Cat: CatTraverse,
			Gremlin: "v.as('i').both(*ls).except(vs).store(vs).loop('i')",
			Desc:    "Nodes reached via breadth-first traversal from v on labels ls",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				vs, err := gremlin.BFS(ctx, e, p.V, p.Depth, p.Label)
				return Result{Count: int64(len(vs))}, err
			},
		},
		{
			Num: 34, Name: "Q34", Cat: CatTraverse,
			Gremlin: "v1...loop('i'){!it.object.equals(v2)}.retain([v2]).path()",
			Desc:    "Unweighted shortest path from v1 to v2",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				path, err := gremlin.ShortestPath(ctx, e, p.V, p.V2)
				return Result{Count: int64(len(path))}, err
			},
		},
		{
			Num: 35, Name: "Q35", Cat: CatTraverse,
			Gremlin: "Shortest Path on 'l'",
			Desc:    "Same as Q34, but only following label l",
			Run: func(ctx context.Context, e core.Engine, p Params) (Result, error) {
				path, err := gremlin.ShortestPath(ctx, e, p.V, p.V2, p.Label)
				return Result{Count: int64(len(path))}, err
			},
		},
	}
}

// ByName returns the named query (e.g. "Q28"), or nil.
func ByName(name string) *Query {
	for _, q := range Queries() {
		if q.Name == name {
			q := q
			return &q
		}
	}
	return nil
}
