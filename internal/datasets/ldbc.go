package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// ldbcSeed is the ldbc generator's fixed seed (see Spec.Seed).
const ldbcSeed = 7

// ldbcV and ldbcE are the generator's sizes at scale 1.0: Table 3's
// |V| and |E|.
const ldbcV, ldbcE = 184_000, 1_500_000

// The 15 edge labels of the ldbc dataset (Table 3 reports |L| = 15).
var ldbcLabels = []string{
	"knows", "livesIn", "worksAt", "studyAt", "hasInterest",
	"hasModerator", "hasMember", "containerOf", "created", "likes",
	"hasTag", "replyOf", "locatedIn", "isPartOf", "follows",
}

// Generation phases of the ldbc dataset. Each consumes its own RNG
// streams (see shard.go) so the phases — and the shards within a
// phase — are independent, which is what makes the sharded generator
// byte-stable for any worker count.
const (
	ldbcPersonV uint64 = iota + 16
	ldbcPostV
	ldbcKnowsE
	ldbcPartE
	ldbcLocatedE
	ldbcModeratorE
	ldbcPostE
	ldbcTagE
	ldbcPersonE
	ldbcActivityE
)

// LDBC generates the LDBC-SNB-style social network: the only dataset
// with properties on both nodes and edges, a single connected
// component, power-law user activity, and assortative interests — the
// characteristics for which the paper selects the LDBC generator over
// a real social-network dump.
//
// Layout is fully precomputed — vertex and edge counts per phase are
// derived from the scale alone — so every shard knows its slot range
// and the uid properties (which equal the object's global index, as in
// the sequential generator) up front.
func LDBC(scale float64) *core.Graph {
	const seed = ldbcSeed
	totalV := scaled(ldbcV, scale, 1_500)
	totalE := scaled(ldbcE, scale, 12_000)

	// Node composition (fractions chosen to mimic SNB output: content
	// dominates, persons are few).
	nPersons := totalV * 2 / 100
	if nPersons < 50 {
		nPersons = 50
	}
	nForums := totalV * 2 / 100
	nTags := totalV * 3 / 100
	nPlaces := totalV / 100
	nOrgs := totalV / 100
	if nForums < 5 {
		nForums = 5
	}
	if nTags < 10 {
		nTags = 10
	}
	if nPlaces < 5 {
		nPlaces = 5
	}
	if nOrgs < 4 {
		nOrgs = 4
	}
	nPosts := totalV - nPersons - nForums - nTags - nPlaces - nOrgs

	// Vertex bases, in the canonical insertion order.
	basePerson := 0
	basePlace := basePerson + nPersons
	baseOrg := basePlace + nPlaces
	baseTag := baseOrg + nOrgs
	baseForum := baseTag + nTags
	basePost := baseForum + nForums

	// Edge bases: the connectivity skeleton (fixed sizes), then activity
	// edges filling the remaining budget.
	eKnows := nPersons - 1
	ePart := nPlaces - 1
	eLocated := nOrgs
	eModerator := nForums
	ePost := 2 * nPosts
	eTag := nTags
	ePerson := 3 * nPersons
	skeleton := eKnows + ePart + eLocated + eModerator + ePost + eTag + ePerson
	activity := totalE - skeleton
	if activity < 0 {
		activity = 0
	}

	baseKnows := 0
	basePart := baseKnows + eKnows
	baseLocated := basePart + ePart
	baseModerator := baseLocated + eLocated
	basePostE := baseModerator + eModerator
	baseTagE := basePostE + ePost
	basePersonE := baseTagE + eTag
	baseActivity := basePersonE + ePerson

	g := &core.Graph{
		VProps: make([]core.Props, totalV),
		EdgeL:  make([]core.EdgeRec, skeleton+activity),
	}
	browsers := []string{"Firefox", "Chrome", "Safari", "Opera"}

	// day is a timestamp within the dataset's 3-year window.
	day := func(rng *rand.Rand) core.Value { return core.I(int64(rng.Intn(1095))) }
	euid := func(rng *rand.Rand, e int) core.Props {
		return core.Props{"uid": core.I(int64(e)), "at": day(rng)}
	}

	// --- vertices ---
	forShards(nPersons, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcPersonV, shard)
		for i := start; i < end; i++ {
			g.VProps[basePerson+i] = core.Props{
				"kind":      core.S("person"),
				"uid":       core.I(int64(basePerson + i)),
				"firstName": core.S(fmt.Sprintf("First%04d", i)),
				"lastName":  core.S(fmt.Sprintf("Last%04d", i%500)),
				"birthday":  core.I(int64(1950 + rng.Intn(55))),
				"browser":   core.S(browsers[rng.Intn(len(browsers))]),
				"ip":        core.S(fmt.Sprintf("10.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256))),
			}
		}
	})
	forShards(nPlaces, func(_, start, end int) {
		for i := start; i < end; i++ {
			g.VProps[basePlace+i] = core.Props{
				"kind": core.S("place"), "uid": core.I(int64(basePlace + i)),
				"name": core.S(fmt.Sprintf("city-%03d", i)),
			}
		}
	})
	forShards(nOrgs, func(_, start, end int) {
		for i := start; i < end; i++ {
			kind := "company"
			if i%2 == 1 {
				kind = "university"
			}
			g.VProps[baseOrg+i] = core.Props{
				"kind": core.S(kind), "uid": core.I(int64(baseOrg + i)),
				"name": core.S(fmt.Sprintf("%s-%03d", kind, i)),
			}
		}
	})
	forShards(nTags, func(_, start, end int) {
		for i := start; i < end; i++ {
			g.VProps[baseTag+i] = core.Props{
				"kind": core.S("tag"), "uid": core.I(int64(baseTag + i)),
				"name": core.S(fmt.Sprintf("tag-%04d", i)),
			}
		}
	})
	forShards(nForums, func(_, start, end int) {
		for i := start; i < end; i++ {
			g.VProps[baseForum+i] = core.Props{
				"kind": core.S("forum"), "uid": core.I(int64(baseForum + i)),
				"title": core.S(fmt.Sprintf("forum-%04d", i)),
			}
		}
	})
	forShards(nPosts, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcPostV, shard)
		for i := start; i < end; i++ {
			g.VProps[basePost+i] = core.Props{
				"kind": core.S("post"), "uid": core.I(int64(basePost + i)),
				"length": core.I(int64(10 + rng.Intn(500))),
			}
		}
	})

	// --- connectivity skeleton: guarantees one component ---
	// Chain + preferential attachment gives connected power-law knows.
	forShards(eKnows, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcKnowsE, shard)
		for j := start; j < end; j++ {
			e := baseKnows + j
			g.EdgeL[e] = core.EdgeRec{
				Src: basePerson + j + 1, Dst: basePerson + powerLawIndex(rng, j+1, 0.55),
				Label: "knows",
				Props: core.Props{"uid": core.I(int64(e)), "since": day(rng)},
			}
		}
	})
	forShards(ePart, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcPartE, shard)
		for j := start; j < end; j++ {
			e := basePart + j
			g.EdgeL[e] = core.EdgeRec{
				Src: basePlace + j + 1, Dst: basePlace,
				Label: "isPartOf", Props: euid(rng, e),
			}
		}
	})
	forShards(eLocated, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcLocatedE, shard)
		for j := start; j < end; j++ {
			e := baseLocated + j
			g.EdgeL[e] = core.EdgeRec{
				Src: baseOrg + j, Dst: basePlace + j%nPlaces,
				Label: "locatedIn", Props: euid(rng, e),
			}
		}
	})
	forShards(eModerator, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcModeratorE, shard)
		for j := start; j < end; j++ {
			e := baseModerator + j
			g.EdgeL[e] = core.EdgeRec{
				Src: baseForum + j, Dst: basePerson + j%nPersons,
				Label: "hasModerator", Props: euid(rng, e),
			}
		}
	})
	// Every post is created by a (hub-biased) person and contained in a
	// forum: two edges per post.
	forShards(nPosts, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcPostE, shard)
		for j := start; j < end; j++ {
			e := basePostE + 2*j
			creator := basePerson + powerLawIndex(rng, nPersons, 0.6)
			g.EdgeL[e] = core.EdgeRec{
				Src: creator, Dst: basePost + j,
				Label: "created", Props: euid(rng, e),
			}
			g.EdgeL[e+1] = core.EdgeRec{
				Src: baseForum + j%nForums, Dst: basePost + j,
				Label: "containerOf", Props: euid(rng, e+1),
			}
		}
	})
	forShards(eTag, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcTagE, shard)
		for j := start; j < end; j++ {
			e := baseTagE + j
			g.EdgeL[e] = core.EdgeRec{
				Src: basePost + j%nPosts, Dst: baseTag + j,
				Label: "hasTag", Props: euid(rng, e),
			}
		}
	})
	// Every person lives somewhere, works somewhere, studied somewhere:
	// three edges per person.
	forShards(nPersons, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcPersonE, shard)
		for j := start; j < end; j++ {
			e := basePersonE + 3*j
			p := basePerson + j
			g.EdgeL[e] = core.EdgeRec{
				Src: p, Dst: basePlace + rng.Intn(nPlaces),
				Label: "livesIn", Props: euid(rng, e),
			}
			g.EdgeL[e+1] = core.EdgeRec{
				Src: p, Dst: baseOrg + rng.Intn(nOrgs),
				Label: "worksAt",
				Props: core.Props{"uid": core.I(int64(e + 1)), "since": day(rng)},
			}
			g.EdgeL[e+2] = core.EdgeRec{
				Src: p, Dst: baseOrg + rng.Intn(nOrgs),
				Label: "studyAt",
				Props: core.Props{"uid": core.I(int64(e + 2)), "classYear": core.I(int64(1990 + rng.Intn(25)))},
			}
		}
	})

	// --- activity: fill the remaining edge budget ---
	forShards(activity, func(shard, start, end int) {
		rng := shardRNG(seed, ldbcActivityE, shard)
		for j := start; j < end; j++ {
			e := baseActivity + j
			p := basePerson + powerLawIndex(rng, nPersons, 0.6)
			switch rng.Intn(10) {
			case 0, 1, 2: // likes dominate, hub posts attract most
				g.EdgeL[e] = core.EdgeRec{
					Src: p, Dst: basePost + powerLawIndex(rng, nPosts, 0.7),
					Label: "likes", Props: euid(rng, e),
				}
			case 3, 4:
				g.EdgeL[e] = core.EdgeRec{
					Src: p, Dst: basePost + rng.Intn(nPosts),
					Label: "likes", Props: euid(rng, e),
				}
			case 5:
				g.EdgeL[e] = core.EdgeRec{
					Src: p, Dst: basePerson + powerLawIndex(rng, nPersons, 0.55),
					Label: "knows",
					Props: core.Props{"uid": core.I(int64(e)), "since": day(rng)},
				}
			case 6:
				g.EdgeL[e] = core.EdgeRec{
					Src: p, Dst: baseTag + rng.Intn(nTags),
					Label: "hasInterest", Props: euid(rng, e),
				}
			case 7:
				g.EdgeL[e] = core.EdgeRec{
					Src: baseForum + rng.Intn(nForums), Dst: p,
					Label: "hasMember",
					Props: core.Props{"uid": core.I(int64(e)), "joined": day(rng)},
				}
			case 8:
				g.EdgeL[e] = core.EdgeRec{
					Src: p, Dst: baseForum + rng.Intn(nForums),
					Label: "follows", Props: euid(rng, e),
				}
			case 9:
				// Replies need two distinct posts; every slot must yield an
				// edge (slot == uid), so redraw the target, falling back to
				// a like when the post table is degenerate.
				a := rng.Intn(nPosts)
				b := rng.Intn(nPosts)
				if a == b {
					b = (a + 1) % nPosts
				}
				if a != b {
					g.EdgeL[e] = core.EdgeRec{
						Src: basePost + a, Dst: basePost + b,
						Label: "replyOf", Props: euid(rng, e),
					}
				} else {
					g.EdgeL[e] = core.EdgeRec{
						Src: p, Dst: basePost + a,
						Label: "likes", Props: euid(rng, e),
					}
				}
			}
		}
	})
	return g
}
