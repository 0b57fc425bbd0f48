package datasets

import (
	"math/rand"
	"runtime"

	"repro/internal/par"
)

// Dataset generation is sharded: every generator phase (a vertex range
// or an edge range) is cut into fixed-size shards, each shard draws
// from its own RNG derived from (generator seed, phase, shard index),
// and shards fill disjoint slices of the pre-sized graph. Because the
// shard boundaries and the per-shard seeds depend only on the phase
// size — never on the worker count — the generated graph is
// byte-identical for any GOMAXPROCS, including one.

// shardSize is the number of objects (vertices or edges) per shard. It
// is part of the determinism contract: changing it changes the
// generated graphs, exactly like changing a generator seed would.
const shardSize = 8192

// splitmix64 is the SplitMix64 finalizer: a bijective mixer whose
// outputs for sequential inputs are statistically independent — the
// standard way to derive uncorrelated per-shard seeds from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardRNG returns the RNG for shard s of the given phase, derived from
// the generator seed. Distinct (seed, phase, shard) triples get
// distinct, independent streams.
func shardRNG(seed int64, phase uint64, s int) *rand.Rand {
	h := splitmix64(splitmix64(uint64(seed)+phase<<32) + uint64(s))
	return rand.New(rand.NewSource(int64(h)))
}

// shardCount is the number of fixed-size shards covering [0, n). It
// depends only on n, never on the worker count.
func shardCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + shardSize - 1) / shardSize
}

// forShards partitions [0, n) into shardSize-sized shards and runs
// fn(shard, start, end) for each on runtime.GOMAXPROCS(0) goroutines.
// fn must write only into the [start, end) range of its outputs. It
// returns only after every shard has run, so callers may read the
// outputs without further synchronization.
func forShards(n int, fn func(shard, start, end int)) {
	par.For(runtime.GOMAXPROCS(0), shardCount(n), func(s int) {
		start := s * shardSize
		fn(s, start, min(start+shardSize, n))
	})
}

// Phase identifiers: every generator phase that consumes randomness has
// its own constant so no two phases of the same generator ever share an
// RNG stream (ldbc.go defines further phases from 16 up).
const (
	phaseVertices uint64 = iota + 1
	phaseEdges
)
