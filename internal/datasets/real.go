package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Generator seeds, hoisted to package level so the dataset Specs can
// report them to the snapshot-cache fingerprint.
const (
	yeastSeed = 42
	micoSeed  = 43
)

// The generators' sizes at scale 1.0: Table 3's |V| and |E|.
const (
	yeastV, yeastE = 2_300, 7_100
	micoV, micoE   = 100_000, 1_100_000
)

// Yeast generates the protein-interaction-network equivalent: ~2.3K
// proteins, ~7.1K interaction edges whose labels are protein-class
// pairs (167 distinct), nodes carrying short/long names, a description,
// and a putative function class — the property shape the paper
// describes for the Pajek yeast dataset. Generation is sharded (see
// shard.go): output is identical for any worker count.
func Yeast(scale float64) *core.Graph {
	const seed = yeastSeed
	n := scaled(yeastV, scale, 200)
	m := scaled(yeastE, scale, 600)

	classes := []string{"E", "T", "M", "P", "G", "R", "C", "F", "D", "O", "U", "B", "A"}
	g := &core.Graph{VProps: make([]core.Props, n), EdgeL: make([]core.EdgeRec, m)}
	forShards(n, func(shard, start, end int) {
		rng := shardRNG(seed, phaseVertices, shard)
		for i := start; i < end; i++ {
			cls := classes[rng.Intn(len(classes))]
			g.VProps[i] = core.Props{
				"short":       core.S(fmt.Sprintf("Y%c%c%03d", 'A'+rng.Intn(16), 'L'+rng.Intn(4), i%1000)),
				"long":        core.S(fmt.Sprintf("protein %d of budding yeast", i)),
				"description": core.S(fmt.Sprintf("putative %s-class protein involved in pathway %d", cls, i%40)),
				"class":       core.S(cls),
			}
		}
	})
	// Interactions: mildly clustered (proteins in the same pathway
	// interact more), which yields ~a hundred small components around
	// one dominant component, as in Table 3.
	forShards(m, func(shard, start, end int) {
		rng := shardRNG(seed, phaseEdges, shard)
		for i := start; i < end; i++ {
			a := rng.Intn(n)
			var b int
			if rng.Float64() < 0.7 {
				b = (a + 1 + rng.Intn(30)) % n // local
			} else {
				b = rng.Intn(n)
			}
			// Edge label = interacting protein classes, 13×13 → ~167 used.
			la := classes[rng.Intn(len(classes))]
			lb := classes[rng.Intn(len(classes))]
			g.EdgeL[i] = core.EdgeRec{Src: a, Dst: b, Label: la + "-" + lb}
		}
	})
	return g
}

// MiCo generates the co-authorship-network equivalent: ~100K authors,
// ~1.1M co-author edges labelled with the number of co-authored papers
// (~106 distinct values, heavily skewed toward 1), and community
// structure around research areas. Generation is sharded (see
// shard.go): output is identical for any worker count.
func MiCo(scale float64) *core.Graph {
	const seed = micoSeed
	n := scaled(micoV, scale, 500)
	m := scaled(micoE, scale, 4_000)

	areas := []string{"databases", "theory", "systems", "ml", "networks", "hci", "security", "graphics"}
	g := &core.Graph{VProps: make([]core.Props, n), EdgeL: make([]core.EdgeRec, m)}
	communities := n / 50
	if communities < 4 {
		communities = 4
	}
	forShards(n, func(_, start, end int) {
		for i := start; i < end; i++ {
			g.VProps[i] = core.Props{
				"name": core.S(fmt.Sprintf("author-%06d", i)),
				"area": core.S(areas[(i*7)%len(areas)]),
			}
		}
	})
	forShards(m, func(shard, start, end int) {
		rng := shardRNG(seed, phaseEdges, shard)
		zipf := rand.NewZipf(rng, 1.9, 1, 105) // paper counts: 1..106, mass at 1
		for i := start; i < end; i++ {
			c := rng.Intn(communities)
			lo := c * n / communities
			hi := (c + 1) * n / communities
			a := lo + rng.Intn(hi-lo)
			var b int
			if rng.Float64() < 0.9 {
				b = lo + rng.Intn(hi-lo) // intra-community collaboration
			} else {
				b = rng.Intn(n)
			}
			papers := int(zipf.Uint64()) + 1
			g.EdgeL[i] = core.EdgeRec{Src: a, Dst: b, Label: fmt.Sprintf("%d", papers)}
		}
	})
	return g
}
