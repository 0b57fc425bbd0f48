package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/engines/titan"
	"repro/internal/lsm"
	"repro/internal/pagefile"
	"repro/internal/rel"
)

// Substrate kernels: each shared substrate driven directly, outside
// any engine, with one composite key per edge of the workload's own
// dataset — (src, dst, edge index), the shape the engines' adjacency
// keys have. They run on the traced run only and report ns per
// operation as the median of kernelReps repetitions. A kernel is
// reported on the workload that drives its operation: lookups and
// scans on read, inserts and deletes on write, the bulk build on load,
// the log on serve.
const kernelReps = 3

// perOp times run, which performs n operations, kernelReps times —
// calling prep before each, untimed — and returns the median ns per
// operation.
func perOp(n int, prep, run func()) float64 {
	var ns []float64
	for i := 0; i < kernelReps; i++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		run()
		ns = append(ns, float64(time.Since(start))/float64(n))
	}
	return median(ns)
}

// kernelInput is the key material drawn from a dataset.
type kernelInput struct {
	keys, vals [][]byte // one per edge, in edge order
	shuffled   []int    // key indexes in a seeded random order
	sorted     [][]byte // keys ascending, for bulk builds
	srcs       [][]byte // distinct 8-byte source prefixes
	src, dst   []int64  // edge endpoints
	userBytes  int64
}

func (env *env) kernelInput(g *core.Graph) *kernelInput {
	n := min(g.NumEdges(), env.size.kernelKeys)
	in := &kernelInput{}
	seen := map[int]bool{}
	for i, e := range g.EdgeL[:n] {
		k := make([]byte, 24)
		binary.BigEndian.PutUint64(k, uint64(e.Src))
		binary.BigEndian.PutUint64(k[8:], uint64(e.Dst))
		binary.BigEndian.PutUint64(k[16:], uint64(i))
		in.keys = append(in.keys, k)
		in.vals = append(in.vals, k[16:])
		in.src = append(in.src, int64(e.Src))
		in.dst = append(in.dst, int64(e.Dst))
		in.userBytes += int64(len(k) + 8)
		if !seen[e.Src] {
			seen[e.Src] = true
			in.srcs = append(in.srcs, k[:8])
		}
	}
	in.shuffled = rand.New(rand.NewSource(env.seed)).Perm(n)
	in.sorted = append([][]byte(nil), in.keys...)
	sort.Slice(in.sorted, func(i, j int) bool { return string(in.sorted[i]) < string(in.sorted[j]) })
	return in
}

// setKernels records the named results; the rest stay 0 on this
// workload.
func (env *env) setKernels(all map[string]float64, names ...string) {
	for _, n := range names {
		env.rep.set(n, all[n], 0)
	}
}

func (env *env) readKernels(g *core.Graph) {
	env.setKernels(env.kernels(g),
		"btree.get_ns", "btree.seek_ns", "btree.ascend_prefix_ns", "btree.get_allocs",
		"lsm.get_ns", "lsm.scan_prefix_ns", "lsm.space_amp",
		"rel.get_ns", "rel.select_eq_ns", "rel.indexed_join_ns", "rel.seek_share",
		"pagefile.record_ns", "pagefile.heap_read_ns",
		"bitmap.contains_ns", "bitmap.and_ns", "bitmap.iterate_ns")
}

func (env *env) writeKernels(g *core.Graph) {
	env.setKernels(env.kernels(g),
		"btree.put_ns", "btree.delete_ns", "lsm.put_ns", "rel.insert_ns", "pagefile.alloc_ns", "bitmap.add_ns")
}

// loadKernels times the one substrate operation bulk loading drives:
// building a B-tree from sorted keys.
func (env *env) loadKernels(g *core.Graph) {
	in := env.kernelInput(g)
	env.rep.set("btree.bulk_build_ns", perOp(len(in.keys), nil, func() {
		if err := btree.New().BulkBuild(in.sorted, in.vals); err != nil {
			panic(err)
		}
	}), 0)
}

// kernels runs the in-memory kernels of read and write over g's keys;
// the structures the write side builds are what the read side reads.
func (env *env) kernels(g *core.Graph) map[string]float64 {
	in := env.kernelInput(g)
	n := len(in.keys)
	out := map[string]float64{}
	var sink int

	// btree: the ordered index under blaze and sqlg, and titan's memtable.
	var tree *btree.Tree
	out["btree.put_ns"] = perOp(n, func() { tree = btree.New() }, func() {
		for _, i := range in.shuffled {
			tree.Put(in.keys[i], in.vals[i])
		}
	})
	before := mallocs()
	out["btree.get_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			if _, ok := tree.Get(in.keys[i]); ok {
				sink++
			}
		}
	})
	out["btree.get_allocs"] = float64(mallocs()-before) / float64(kernelReps*n)
	out["btree.seek_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			if _, _, ok := tree.Seek(in.keys[i]).Next(); ok {
				sink++
			}
		}
	})
	out["btree.ascend_prefix_ns"] = perOp(len(in.srcs), nil, func() {
		for _, p := range in.srcs {
			tree.AscendPrefix(p, func(_, _ []byte) bool { sink++; return true })
		}
	})
	out["btree.delete_ns"] = perOp(n, func() {
		tree = btree.New()
		for i := range in.keys {
			tree.Put(in.keys[i], in.vals[i])
		}
	}, func() {
		for _, i := range in.shuffled {
			tree.Delete(in.keys[i])
		}
	})

	// lsm: titan's store, volatile here; the log is walKernel's.
	var store *lsm.Store
	out["lsm.put_ns"] = perOp(n, func() { store = lsm.New(lsm.DefaultOptions()) }, func() {
		for _, i := range in.shuffled {
			store.Put(in.keys[i], in.vals[i])
		}
	})
	out["lsm.space_amp"] = float64(store.Bytes()) / float64(in.userBytes)
	out["lsm.get_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			if _, ok := store.Get(in.keys[i]); ok {
				sink++
			}
		}
	})
	out["lsm.scan_prefix_ns"] = perOp(len(in.srcs), nil, func() {
		for _, p := range in.srcs {
			store.ScanPrefix(p, func(_, _ []byte) bool { sink++; return true })
		}
	})

	// rel: sqlg's tables; edges(id, src, dst) with an index on src.
	var edges *rel.Table
	out["rel.insert_ns"] = perOp(n, func() {
		edges, _ = rel.NewDB().CreateTable("edges", "id", "src", "dst")
	}, func() {
		for i := range in.keys {
			if err := edges.Insert(rel.Row{core.I(int64(i)), core.I(in.src[i]), core.I(in.dst[i])}); err != nil {
				panic(err)
			}
		}
	})
	if err := edges.CreateIndex("src"); err != nil {
		panic(err)
	}
	out["rel.get_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			if _, ok := edges.Get(int64(i)); ok {
				sink++
			}
		}
	})
	scans0, seeks0 := edges.Stats()
	out["rel.select_eq_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			edges.SelectEq("src", core.I(in.src[i]), func(rel.Row) bool { sink++; return true })
		}
	})
	frontier := in.src[:min(n, 10)]
	out["rel.indexed_join_ns"] = perOp(n/10, nil, func() {
		for i := 0; i < n/10; i++ {
			edges.IndexedJoin("src", frontier, func(rel.Row) bool { sink++; return true })
		}
	})
	scans, seeks := edges.Stats()
	out["rel.seek_share"] = float64(seeks-seeks0) / float64(scans-scans0+seeks-seeks0)

	// pagefile: neo's fixed-size record stores and orient's heap.
	var records *pagefile.Store
	out["pagefile.alloc_ns"] = perOp(n, func() { records = pagefile.NewStore(34) }, func() {
		for range in.keys {
			records.Alloc()
		}
	})
	out["pagefile.record_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			if _, ok := records.Record(int64(i)); ok {
				sink++
			}
		}
	})
	heap := pagefile.NewHeap()
	offs := make([]int64, n)
	for i, k := range in.keys {
		offs[i] = heap.Append(k)
	}
	out["pagefile.heap_read_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			if _, ok := heap.Read(offs[i]); ok {
				sink++
			}
		}
	})

	// bitmap: sparksee's object sets; sources against destinations.
	var srcSet *bitmap.Bitmap
	out["bitmap.add_ns"] = perOp(n, func() { srcSet = bitmap.New() }, func() {
		for _, i := range in.shuffled {
			srcSet.Add(uint64(in.src[i]))
		}
	})
	dstSet := bitmap.New()
	for _, d := range in.dst {
		dstSet.Add(uint64(d))
	}
	out["bitmap.contains_ns"] = perOp(n, nil, func() {
		for _, i := range in.shuffled {
			if srcSet.Contains(uint64(in.dst[i])) {
				sink++
			}
		}
	})
	members := srcSet.Len() + dstSet.Len()
	out["bitmap.and_ns"] = perOp(members, nil, func() { sink += srcSet.And(dstSet).Len() })
	out["bitmap.iterate_ns"] = perOp(members, nil, func() {
		srcSet.Iterate(func(uint64) bool { sink++; return true })
		dstSet.Iterate(func(uint64) bool { sink++; return true })
	})
	if sink < 0 {
		panic("unreachable: sink keeps the kernels' results alive")
	}
	return out
}

// walKernel drives a durable lsm.Store — default WAL policy, the real
// filesystem under the run's scratch directory — with g's keys, and
// records the cost of logging them: time per put, group commits per
// thousand puts, and log bytes per user byte.
func (env *env) walKernel(g *core.Graph) error {
	in := env.kernelInput(g)
	dir, err := env.scratch("wal-kernel")
	if err != nil {
		return err
	}
	store, _, err := lsm.Open(dir, lsm.OpenOptions{Store: lsm.DefaultOptions()})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, i := range in.shuffled {
		store.Put(in.keys[i], in.vals[i])
	}
	putNS := float64(time.Since(start)) / float64(len(in.keys))
	_, _, syncs := store.WALStats()
	if err := store.Close(); err != nil {
		return fmt.Errorf("wal kernel: %w", err)
	}
	var logBytes int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			logBytes += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	env.rep.set("wal.put_ns", putNS, 0)
	env.rep.set("wal.syncs_per_kop", 1000*float64(syncs)/float64(len(in.keys)), 0)
	env.rep.set("wal.write_amp", float64(logBytes)/float64(in.userBytes), 0)
	return nil
}

// titanStats records what a real titan-1.0 engine's LSM store did
// since its bulk load — memtable flushes, compactions, and the row
// cache's hit ratio — for the first instance it is called with.
func (env *env) titanStats(l *loaded) {
	if _, done := env.rep.values["lsm.flushes"]; done {
		return
	}
	flushes, compacts, _, hits, misses := l.raw.(*titan.Engine).Stats()
	env.rep.set("lsm.flushes", float64(flushes), 0)
	env.rep.set("lsm.compactions", float64(compacts), 0)
	if hits+misses > 0 {
		env.rep.set("lsm.cache_hit_ratio", float64(hits)/float64(hits+misses), 0)
	}
}
