// Package datasets generates the benchmark datasets of Table 3. The
// paper's real datasets (Yeast, MiCo, four Freebase samples) are not
// redistributable, so each is replaced by a deterministic synthetic
// generator matched to its reported characteristics: node/edge/label
// counts, degree skew, component structure, and property shapes. The
// ldbc dataset is generated directly (the paper, too, generates it with
// the LDBC tool rather than using real data).
//
// All generators are seeded and take a scale factor: 1.0 reproduces the
// paper's object counts, smaller values shrink node/edge counts
// proportionally while keeping label cardinality and skew — the
// *structural* properties that drive the engines apart — as close to
// the paper as the size allows.
package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Table3Row is a row of the paper's Table 3 (dataset characteristics).
type Table3Row struct {
	V          int     // |V|
	E          int     // |E|
	L          int     // |L| distinct edge labels
	Components int     // # connected components
	MaxComp    int     // size of the largest component
	Density    float64 // |E| / (|V|·(|V|−1))
	Modularity float64 // modularity of the component partition
	AvgDeg     float64 // average degree 2|E|/|V|
	MaxDeg     int     // maximum degree
	Diameter   int     // graph diameter (of the largest component)
}

// Spec describes one benchmark dataset.
type Spec struct {
	Name  string
	Desc  string
	Paper Table3Row // the characteristics reported in Table 3
	// Seed is the generator's fixed seed. It never varies at run time;
	// it is exposed so the snapshot cache fingerprint (snapshot.go)
	// covers it — editing a generator's seed constant must invalidate
	// its cached artifacts exactly like a code change would.
	Seed int64
	// Generate builds the dataset at the given scale (1.0 = paper size).
	Generate func(scale float64) *core.Graph
}

// Specs returns all datasets in Table 3 order.
func Specs() []Spec {
	return []Spec{
		{
			Name: "yeast",
			Desc: "protein–protein interaction network (S. cerevisiae)",
			Paper: Table3Row{V: yeastV, E: yeastE, L: 167, Components: 101, MaxComp: 2_200,
				Density: 1.34e-3, Modularity: 3.66e-2, AvgDeg: 6.1, MaxDeg: 66, Diameter: 11},
			Seed:     yeastSeed,
			Generate: Yeast,
		},
		{
			Name: "mico",
			Desc: "co-authorship network (Microsoft Academic, CS)",
			Paper: Table3Row{V: micoV, E: micoE, L: 106, Components: 1_300, MaxComp: 93_000,
				Density: 1.10e-6, Modularity: 5.45e-3, AvgDeg: 21.6, MaxDeg: 1_300, Diameter: 23},
			Seed:     micoSeed,
			Generate: MiCo,
		},
		{
			Name: "frb-o",
			Desc: "Freebase subset: organization/business/government/… topics",
			Paper: Table3Row{V: frbO.nodes, E: frbO.edges, L: 424, Components: 133_000, MaxComp: 1_600_000,
				Density: 1.19e-6, Modularity: 9.82e-1, AvgDeg: 4.3, MaxDeg: 92_000, Diameter: 48},
			Seed:     frbO.seed,
			Generate: func(s float64) *core.Graph { return freebase(frbO, s) },
		},
		{
			Name: "frb-s",
			Desc: "Freebase 0.1% random edge sample",
			Paper: Table3Row{V: frbS.nodes, E: frbS.edges, L: 1_814, Components: 160_000, MaxComp: 20_000,
				Density: 1.20e-6, Modularity: 9.91e-1, AvgDeg: 1.3, MaxDeg: 13_000, Diameter: 4},
			Seed:     frbS.seed,
			Generate: func(s float64) *core.Graph { return freebase(frbS, s) },
		},
		{
			Name: "frb-m",
			Desc: "Freebase 1% random edge sample",
			Paper: Table3Row{V: frbM.nodes, E: frbM.edges, L: 2_912, Components: 1_100_000, MaxComp: 1_400_000,
				Density: 1.94e-7, Modularity: 7.97e-1, AvgDeg: 1.5, MaxDeg: 139_000, Diameter: 37},
			Seed:     frbM.seed,
			Generate: func(s float64) *core.Graph { return freebase(frbM, s) },
		},
		{
			Name: "frb-l",
			Desc: "Freebase 10% random edge sample",
			Paper: Table3Row{V: frbL.nodes, E: frbL.edges, L: 3_821, Components: 2_000_000, MaxComp: 23_000_000,
				Density: 3.87e-8, Modularity: 2.12e-1, AvgDeg: 2.2, MaxDeg: 1_400_000, Diameter: 33},
			Seed:     frbL.seed,
			Generate: func(s float64) *core.Graph { return freebase(frbL, s) },
		},
		{
			Name: "ldbc",
			Desc: "LDBC SNB-style social network (1000 users, 3 years)",
			Paper: Table3Row{V: ldbcV, E: ldbcE, L: 15, Components: 1, MaxComp: 184_000,
				Density: 4.43e-5, Modularity: 0, AvgDeg: 16.6, MaxDeg: 48_000, Diameter: 10},
			Seed:     ldbcSeed,
			Generate: LDBC,
		},
	}
}

// ByName returns the named dataset spec, or nil.
func ByName(name string) *Spec {
	for _, s := range Specs() {
		if s.Name == name {
			s := s
			return &s
		}
	}
	return nil
}

// Names returns dataset names in Table 3 order.
func Names() []string {
	var out []string
	for _, s := range Specs() {
		out = append(out, s.Name)
	}
	return out
}

// CheckScale reports an error for a scale that is not a finite
// positive number, or that is above maxScale. Generators clamp every
// size to a floor, so a NaN, infinite or negative scale would otherwise
// yield minimum-size graphs without a word, and so would a huge one,
// whose sizes overflow int.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("scale %v is not a finite positive number", scale)
	}
	if limit := maxScale(); scale > limit {
		return fmt.Errorf("scale %v is above %v, where a dataset outgrows the int32 indexes of its CSR", scale, limit)
	}
	return nil
}

// maxScale is the largest scale at which every dataset's |V| and 2|E|
// (its undirected adjacency) fit core.CSR's int32 indexes. A Spec's
// Paper.V and Paper.E are the sizes its generator passes to scaled.
func maxScale() float64 {
	limit := math.Inf(1)
	for _, s := range Specs() {
		limit = min(limit, math.MaxInt32/float64(max(s.Paper.V, 2*s.Paper.E)))
	}
	return limit
}

// scaled returns max(lo, round(n*scale)).
func scaled(n int, scale float64, lo int) int {
	v := int(math.Round(float64(n) * scale))
	if v < lo {
		return lo
	}
	return v
}

// powerLawIndex draws an index in [0, n) with a hub bias: index 0 is
// the biggest hub. alpha around 0.6–0.8 produces Freebase-like skew.
func powerLawIndex(rng *rand.Rand, n int, alpha float64) int {
	u := rng.Float64()
	i := int(math.Pow(u, 1/(1-alpha)) * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// zipfLabel draws one of n labels with Zipfian frequency, named
// prefix0..prefix<n-1>.
func zipfLabel(rng *rand.Rand, zipf *rand.Zipf, prefix string, n int) string {
	i := int(zipf.Uint64())
	if i >= n {
		i = n - 1
	}
	return fmt.Sprintf("%s%d", prefix, i)
}
