// Package repro's root benchmark suite regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks: one
// Benchmark function per table/figure, with engine (and where relevant
// query/depth) sub-benchmarks. ns/op is the paper's per-query latency;
// the Fig1 benches additionally report space via custom metrics.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate a single figure, e.g. the BFS sweep:
//
//	go test -bench=BenchmarkFig6BFS
//
// The default scale keeps the full suite laptop-sized; raise it with
//
//	REPRO_SCALE=0.02 go test -bench=. -timeout 2h
package repro

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/gremlin"
	"repro/internal/harness"
	"repro/internal/workload"
)

// benchScale is the dataset scale factor for the benchmark suite.
func benchScale() float64 {
	if s := os.Getenv("REPRO_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.002
}

// graphCache builds each dataset once per benchmark binary. With
// GDB_DATASET_CACHE set to a directory, acquisition additionally goes
// through the on-disk artifact cache (internal/datasets), so repeated
// benchmark invocations — and gdb-bench runs pointed at
// the same directory — share one snapshot per (dataset, scale, seed)
// instead of regenerating per process.
var (
	graphMu    sync.Mutex
	graphCache = map[string]*core.Graph{}
)

func graph(b *testing.B, name string) *core.Graph {
	b.Helper()
	graphMu.Lock()
	defer graphMu.Unlock()
	key := fmt.Sprintf("%s@%g", name, benchScale())
	if g, ok := graphCache[key]; ok {
		return g
	}
	g, st, err := datasets.AcquireWith(name, benchScale(), datasets.AcquireOptions{CacheDir: os.Getenv("GDB_DATASET_CACHE")})
	if err != nil {
		b.Fatal(err)
	}
	if st.Err != nil {
		b.Logf("dataset cache: %v", st.Err)
	}
	graphCache[key] = g
	return g
}

// loaded returns a freshly loaded engine over the dataset.
func loaded(b *testing.B, engine, dataset string) (core.Engine, *core.LoadResult) {
	b.Helper()
	e, err := engines.New(engine)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.BulkLoad(graph(b, dataset))
	if err != nil {
		b.Fatal(err)
	}
	return e, res
}

func params(b *testing.B, dataset string, res *core.LoadResult) *harness.ParamGen {
	b.Helper()
	return harness.NewParamGen(graph(b, dataset), 1)
}

// benchDataset is the Freebase sample most figures sweep; frb-m keeps
// runtimes moderate while preserving the label-rich fragmented shape.
const benchDataset = "frb-m"

// poolIters is how many parameter slots runQuery cycles through: the
// paper's batch size. A mutating query's slots are distinct only up to
// the dataset's pool, and a benchmark loop runs far longer.
const poolIters = 10

// runQuery benchmarks one micro query on one loaded engine.
func runQuery(b *testing.B, e core.Engine, pg *harness.ParamGen, res *core.LoadResult, name string) {
	b.Helper()
	q := workload.ByName(name)
	if q == nil {
		b.Fatalf("unknown query %s", name)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(ctx, e, pg.For(q, i%poolIters, res)); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// --- Table 3 ---

// BenchmarkTable3Stats measures the dataset-statistics computation that
// regenerates Table 3.
func BenchmarkTable3Stats(b *testing.B) {
	for _, ds := range []string{"yeast", "frb-s", "ldbc"} {
		g := graph(b, ds)
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row := datasets.Stats(g)
				if row.V == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// --- Figure 1(a,b): space occupancy ---

// BenchmarkFig1Space loads the dataset into each engine and reports the
// structural space as MB/load (space-MB metric), the quantity behind
// Figure 1(a,b).
func BenchmarkFig1Space(b *testing.B) {
	for _, en := range engines.Names() {
		b.Run(en, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				e, _ := loaded(b, en, benchDataset)
				total = e.SpaceUsage().Total
				e.Close()
			}
			b.ReportMetric(float64(total)/(1<<20), "space-MB")
		})
	}
}

// --- Figure 2: complex queries on ldbc ---

// BenchmarkFig2Complex runs representative complex queries (the
// single-label hop where Sqlg shines, the 2-hop friend recommendation,
// and the unfiltered 2-hop where Sqlg collapses).
func BenchmarkFig2Complex(b *testing.B) {
	g := graph(b, "ldbc")
	for _, en := range engines.Names() {
		e, res := loaded(b, en, "ldbc")
		cp := harness.ComplexFor(g, res)
		ctx := context.Background()
		for _, qn := range []string{"city", "friend2", "triangle", "places"} {
			cq := workload.ComplexByName(qn)
			b.Run(en+"/"+qn, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cq.Run(ctx, e, cp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		e.Close()
	}
}

// --- Figure 3(a): loading ---

// BenchmarkFig3Load measures each engine's bulk load path (Q1).
func BenchmarkFig3Load(b *testing.B) {
	g := graph(b, benchDataset)
	for _, en := range engines.Names() {
		b.Run(en, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := engines.New(en)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.BulkLoad(g); err != nil {
					b.Fatal(err)
				}
				e.Close()
			}
		})
	}
}

// --- Figure 3(b): insertions ---

// BenchmarkFig3Insert measures node (Q2), edge (Q3) and combined (Q7)
// insertion.
func BenchmarkFig3Insert(b *testing.B) {
	for _, en := range engines.Names() {
		for _, qn := range []string{"Q2", "Q3", "Q7"} {
			b.Run(en+"/"+qn, func(b *testing.B) {
				e, res := loaded(b, en, benchDataset)
				defer e.Close()
				pg := params(b, benchDataset, res)
				runQuery(b, e, pg, res, qn)
			})
		}
	}
}

// --- Figure 3(c): updates and deletions ---

// BenchmarkFig3UpdateDelete measures property update (Q16) directly,
// and node deletion (Q18) as a delete+recreate cycle so the store never
// runs dry (the recreate is a Q2+Q3, whose cost Fig 3(b) shows is small
// against a cascading delete).
func BenchmarkFig3UpdateDelete(b *testing.B) {
	for _, en := range engines.Names() {
		b.Run(en+"/Q16", func(b *testing.B) {
			e, res := loaded(b, en, benchDataset)
			defer e.Close()
			pg := params(b, benchDataset, res)
			runQuery(b, e, pg, res, "Q16")
		})
		b.Run(en+"/Q18cycle", func(b *testing.B) {
			e, res := loaded(b, en, benchDataset)
			defer e.Close()
			pg := params(b, benchDataset, res)
			q := workload.ByName("Q18")
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pg.For(q, 0, res)
				if err := e.RemoveVertex(p.V); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Recreate the vertex at the same engine slot semantics:
				// a fresh vertex replaces it in the parameter pool.
				nv, err := e.AddVertex(core.Props{"recreated": core.I(int64(i))})
				if err != nil {
					b.Fatal(err)
				}
				res.VertexIDs[slices.Index(res.VertexIDs, p.V)] = nv
				_ = ctx
				b.StartTimer()
			}
		})
	}
}

// --- Figure 4: selections ---

// BenchmarkFig4Select measures the whole-graph scans (Q8 counts, Q11
// property search, Q13 label search).
func BenchmarkFig4Select(b *testing.B) {
	for _, en := range engines.Names() {
		for _, qn := range []string{"Q8", "Q11", "Q13"} {
			b.Run(en+"/"+qn, func(b *testing.B) {
				e, res := loaded(b, en, benchDataset)
				defer e.Close()
				pg := params(b, benchDataset, res)
				runQuery(b, e, pg, res, qn)
			})
		}
	}
}

// BenchmarkFig4ByID measures id lookups (Q14, Q15).
func BenchmarkFig4ByID(b *testing.B) {
	for _, en := range engines.Names() {
		for _, qn := range []string{"Q14", "Q15"} {
			b.Run(en+"/"+qn, func(b *testing.B) {
				e, res := loaded(b, en, benchDataset)
				defer e.Close()
				pg := params(b, benchDataset, res)
				runQuery(b, e, pg, res, qn)
			})
		}
	}
}

// BenchmarkFig4cIndex measures Q11 with the user attribute index built
// (engines that cannot exploit one show unchanged times, as in the
// paper; blaze is skipped as unsupported).
func BenchmarkFig4cIndex(b *testing.B) {
	for _, en := range engines.Names() {
		b.Run(en, func(b *testing.B) {
			e, res := loaded(b, en, benchDataset)
			defer e.Close()
			pg := params(b, benchDataset, res)
			if err := e.BuildVertexPropIndex(pg.VPropName()); err != nil {
				b.Skip("no user-controlled attribute indexes")
			}
			runQuery(b, e, pg, res, "Q11")
		})
	}
}

// --- Figure 5: traversals ---

// BenchmarkFig5Traverse measures local neighbourhood access (Q23 out,
// Q24 labelled both, Q27 incident labels).
func BenchmarkFig5Traverse(b *testing.B) {
	for _, en := range engines.Names() {
		for _, qn := range []string{"Q23", "Q24", "Q27"} {
			b.Run(en+"/"+qn, func(b *testing.B) {
				e, res := loaded(b, en, benchDataset)
				defer e.Close()
				pg := params(b, benchDataset, res)
				runQuery(b, e, pg, res, qn)
			})
		}
	}
}

// BenchmarkFig5Degree measures the whole-graph degree filters (Q30) and
// Q31; sparksee's OOM failure mode is reported as a skip.
func BenchmarkFig5Degree(b *testing.B) {
	for _, en := range engines.Names() {
		for _, qn := range []string{"Q30", "Q31"} {
			b.Run(en+"/"+qn, func(b *testing.B) {
				e, res := loaded(b, en, benchDataset)
				defer e.Close()
				pg := params(b, benchDataset, res)
				q := workload.ByName(qn)
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(ctx, e, pg.For(q, i%poolIters, res)); err != nil {
						if err == core.ErrOutOfMemory {
							b.Skipf("engine exhausted its memory budget (the paper's Sparksee failure)")
						}
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 6: BFS depth sweep ---

// BenchmarkFig6BFS measures Q32 at depths 2–4.
func BenchmarkFig6BFS(b *testing.B) {
	for _, en := range engines.Names() {
		e, res := loaded(b, en, benchDataset)
		pg := params(b, benchDataset, res)
		q := workload.ByName("Q32")
		ctx := context.Background()
		for depth := 2; depth <= 4; depth++ {
			p := pg.For(q, 0, res)
			p.Depth = depth
			b.Run(fmt.Sprintf("%s/depth%d", en, depth), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(ctx, e, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		e.Close()
	}
}

// --- Figure 7: shortest path and label-constrained traversals ---

// BenchmarkFig7SP measures Q34 on the Freebase sample and Q33/Q35 on
// ldbc (the label filters only discriminate there, as in the paper).
func BenchmarkFig7SP(b *testing.B) {
	for _, en := range engines.Names() {
		b.Run(en+"/Q34", func(b *testing.B) {
			e, res := loaded(b, en, benchDataset)
			defer e.Close()
			pg := params(b, benchDataset, res)
			runQuery(b, e, pg, res, "Q34")
		})
		for _, qn := range []string{"Q33", "Q35"} {
			b.Run(en+"/"+qn+"-ldbc", func(b *testing.B) {
				e, res := loaded(b, en, "ldbc")
				defer e.Close()
				pg := params(b, "ldbc", res)
				runQuery(b, e, pg, res, qn)
			})
		}
	}
}

// --- ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationNeoChains contrasts the two relationship-chain
// designs on label-filtered traversal: v3.0's per-(type,direction)
// groups vs v1.9's single chain — the "progress across versions"
// analysis of Section 6.4.
func BenchmarkAblationNeoChains(b *testing.B) {
	for _, en := range []string{"neo-1.9", "neo-3.0"} {
		for _, filtered := range []bool{false, true} {
			name := fmt.Sprintf("%s/filtered=%v", en, filtered)
			b.Run(name, func(b *testing.B) {
				e, res := loaded(b, en, benchDataset)
				defer e.Close()
				pg := params(b, benchDataset, res)
				q := workload.ByName("Q23")
				if filtered {
					q = workload.ByName("Q24")
				}
				runQuery(b, e, pg, res, q.Name)
			})
		}
	}
}

// BenchmarkAblationTitanCache contrasts Titan with and without the row
// cache on a repeated traversal — the effect that made some complex
// queries look unrepresentatively fast in Figure 2.
func BenchmarkAblationTitanCache(b *testing.B) {
	for _, en := range []string{"titan-0.5", "titan-1.0"} {
		b.Run(en, func(b *testing.B) {
			e, res := loaded(b, en, benchDataset)
			defer e.Close()
			pg := params(b, benchDataset, res)
			runQuery(b, e, pg, res, "Q23")
		})
	}
}

// BenchmarkAblationBlazeBulk contrasts the triple store's bulk-build
// load with the per-statement path the paper first attempted.
func BenchmarkAblationBlazeBulk(b *testing.B) {
	g := graph(b, "frb-s")
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, _ := engines.New("blaze")
			if _, err := e.BulkLoad(g); err != nil {
				b.Fatal(err)
			}
			e.Close()
		}
	})
	b.Run("per-statement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, _ := engines.New("blaze")
			ids := make([]core.ID, g.NumVertices())
			for v := range g.VProps {
				id, err := e.AddVertex(g.VProps[v])
				if err != nil {
					b.Fatal(err)
				}
				ids[v] = id
			}
			for j := range g.EdgeL {
				er := &g.EdgeL[j]
				if _, err := e.AddEdge(ids[er.Src], ids[er.Dst], er.Label, er.Props); err != nil {
					b.Fatal(err)
				}
			}
			e.Close()
		}
	})
}

// BenchmarkAblationGremlinOverhead isolates the traversal-machine
// overhead from raw engine calls: g.V(id).out() vs direct Neighbors.
func BenchmarkAblationGremlinOverhead(b *testing.B) {
	e, res := loaded(b, "neo-1.9", benchDataset)
	defer e.Close()
	pg := params(b, benchDataset, res)
	q := workload.ByName("Q23")
	v := pg.For(q, 0, res).V
	ctx := context.Background()
	b.Run("gremlin", func(b *testing.B) {
		g := gremlin.New(e)
		for i := 0; i < b.N; i++ {
			if _, err := g.VID(v).Out().Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Drain(e.Neighbors(v, core.DirOut))
		}
	})
}
