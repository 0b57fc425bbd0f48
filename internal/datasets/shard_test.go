package datasets

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestShardedGenerationDeterministic is the determinism contract of
// sharded generation: every generator produces a byte-identical graph —
// vertices, properties, edges, edge properties — for any GOMAXPROCS,
// which is what bounds the shard fan-out. Run under -race it also
// proves the shards write disjoint ranges.
func TestShardedGenerationDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	generate := func(procs int, spec *Spec) *core.Graph {
		runtime.GOMAXPROCS(procs)
		return spec.Generate(0.002)
	}
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			a := generate(1, &s)
			b := generate(8, &s)
			if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
				t.Fatalf("sizes diverge: %d/%d vs %d/%d",
					a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
			}
			for i := range a.VProps {
				if !reflect.DeepEqual(a.VProps[i], b.VProps[i]) {
					t.Fatalf("vertex %d diverges:\nprocs=1: %v\nprocs=8: %v", i, a.VProps[i], b.VProps[i])
				}
			}
			for i := range a.EdgeL {
				if !reflect.DeepEqual(a.EdgeL[i], b.EdgeL[i]) {
					t.Fatalf("edge %d diverges:\nprocs=1: %v\nprocs=8: %v", i, a.EdgeL[i], b.EdgeL[i])
				}
			}
		})
	}
}

func TestForShardsCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 3, 16} {
		runtime.GOMAXPROCS(workers)
		const n = 3*shardSize + 17
		seen := make([]int32, n)
		forShards(n, func(shard, start, end int) {
			if start != shard*shardSize {
				t.Errorf("shard %d starts at %d", shard, start)
			}
			for i := start; i < end; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestShardRNGStreamsIndependent(t *testing.T) {
	a := shardRNG(1, phaseEdges, 0)
	b := shardRNG(1, phaseEdges, 1)
	c := shardRNG(1, phaseVertices, 0)
	av, bv, cv := a.Int63(), b.Int63(), c.Int63()
	if av == bv || av == cv {
		t.Fatalf("shard RNG streams collide: %d %d %d", av, bv, cv)
	}
	if again := shardRNG(1, phaseEdges, 0).Int63(); again != av {
		t.Fatalf("shard RNG not deterministic: %d vs %d", again, av)
	}
}
