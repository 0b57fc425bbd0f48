// Social: run the paper's complex (LDBC-derived) workload — the Figure 2
// macro-benchmark — on an LDBC-style social network across several
// engines, and watch the macro picture blur what the micro-benchmarks
// explain (Sqlg wins single-label hops, loses unfiltered 2-hop scans).
//
// Run with:
//
//	go run ./examples/social
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	const scale = 0.002
	fmt.Printf("generating ldbc dataset at scale %g...\n", scale)
	g := datasets.ByName("ldbc").Generate(scale)
	fmt.Printf("  %d vertices, %d edges, %d labels\n\n", g.NumVertices(), g.NumEdges(), len(g.Labels()))

	ctx := context.Background()
	names := []string{"neo-1.9", "orient", "sqlg", "titan-1.0"}

	fmt.Printf("%-18s", "query")
	for _, n := range names {
		fmt.Printf("%12s", n)
	}
	fmt.Println()

	type cell struct {
		d   time.Duration
		cnt int64
	}
	table := map[string]map[string]cell{}
	for _, en := range names {
		e, err := engines.New(en)
		if err != nil {
			log.Fatal(err)
		}
		res, err := e.BulkLoad(g)
		if err != nil {
			log.Fatal(err)
		}
		cp := harness.ComplexFor(g, res)
		for _, cq := range workload.ComplexQueries() {
			start := time.Now()
			r, err := cq.Run(ctx, e, cp)
			if err != nil {
				log.Fatalf("%s: %s: %v", en, cq.Name, err)
			}
			if table[cq.Name] == nil {
				table[cq.Name] = map[string]cell{}
			}
			table[cq.Name][en] = cell{time.Since(start), r.Count}
		}
		e.Close()
	}

	for _, cq := range workload.ComplexQueries() {
		fmt.Printf("%-18s", cq.Name)
		for _, en := range names {
			c := table[cq.Name][en]
			fmt.Printf("%12s", c.d.Round(10*time.Microsecond))
		}
		fmt.Println()
	}

	fmt.Println("\nresult counts agree across engines:")
	for _, cq := range workload.ComplexQueries() {
		ref := table[cq.Name][names[0]].cnt
		agree := true
		for _, en := range names {
			if table[cq.Name][en].cnt != ref {
				agree = false
			}
		}
		fmt.Printf("  %-18s count=%-8d agree=%v\n", cq.Name, ref, agree)
	}
}
