package titan

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engines/enginetest"
	"repro/internal/lsm"
	"repro/internal/lsm/fsim"
	"repro/internal/lsm/wal"
)

// durableOpts keeps the tests' thresholds small enough to exercise
// flush, compaction and segment rotation on tiny graphs.
func durableOpts() lsm.OpenOptions {
	return lsm.OpenOptions{
		Store: lsm.Options{FlushBytes: 1 << 10, CompactAt: 3, CachePrefixLen: rowPrefixLen},
		WAL:   wal.Options{SegmentBytes: 8 << 10, GroupCommitOps: 8},
	}
}

// TestDurableConformance runs the full engine battery on durable
// titan instances rooted in fresh directories.
func TestDurableConformance(t *testing.T) {
	n := 0
	enginetest.Run(t, func() core.Engine {
		n++
		e, _, err := OpenOptions(V10, fmt.Sprintf("%s/e%d", t.TempDir(), n), durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}

// TestDurableConcurrency runs the concurrency battery (use -race) on
// durable engines: the WAL is single-writer behind core.Guard.
func TestDurableConcurrency(t *testing.T) {
	n := 0
	enginetest.RunConcurrency(t, func() core.Engine {
		n++
		e, _, err := OpenOptions(V10, fmt.Sprintf("%s/e%d", t.TempDir(), n), durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}

func buildSmallGraph() *core.Graph {
	g := core.NewGraph(4, 4)
	g.AddVertex(core.Props{"name": core.S("a"), "bio": core.S(string(make([]byte, 100)))})
	g.AddVertex(core.Props{"name": core.S("b")})
	g.AddVertex(core.Props{"name": core.S("c")})
	g.AddVertex(nil)
	g.AddEdge(0, 1, "knows", core.Props{"w": core.I(1)})
	g.AddEdge(1, 2, "knows", nil)
	g.AddEdge(2, 0, "likes", nil)
	g.AddEdge(3, 3, "likes", nil)
	return g
}

// TestDurableRefusesClone: a durable engine's WAL is one set of files,
// so it cannot be copied; a volatile one of the same version can.
func TestDurableRefusesClone(t *testing.T) {
	e, _, err := OpenOptions(V10, t.TempDir(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.BulkLoad(buildSmallGraph()); err != nil {
		t.Fatal(err)
	}
	if c, err := e.Clone(); !errors.Is(err, core.ErrUnsupported) || c != nil {
		t.Fatalf("durable Clone = %v, %v; want nil, ErrUnsupported", c, err)
	}
	if _, err := New(V10).Clone(); err != nil {
		t.Fatalf("volatile Clone: %v", err)
	}
}

// TestDurableReopenRoundTrip bulk-loads, mutates, closes, reopens:
// dictionaries, allocator, indexes and graph content must all come
// back, and reopening must not write to the log (byte-idempotent
// open).
func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenOptions(V10, dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.BulkLoad(buildSmallGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BuildVertexPropIndex("name"); err != nil {
		t.Fatal(err)
	}
	extra, err := e.AddVertex(core.Props{"name": core.S("d")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEdge(extra, res.VertexIDs[0], "follows", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveEdge(res.EdgeIDs[1]); err != nil {
		t.Fatal(err)
	}
	wantNext := e.nextID
	lsnBefore, _, _ := e.kv.WALStats()
	// Close releases the bookkeeping; keep what the reopen must match.
	labels, propKeys, vindex := e.labels, e.propKeys, e.vindex
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, rst, err := OpenOptions(V10, dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rst.Records == 0 {
		t.Fatal("reopen replayed nothing")
	}
	if lsn, _, _ := r.kv.WALStats(); lsn != lsnBefore {
		t.Fatalf("reopen moved the log: lsn %d, want %d", lsn, lsnBefore)
	}
	if r.nextID != wantNext {
		t.Fatalf("nextID = %d, want %d", r.nextID, wantNext)
	}
	if nv, _ := r.CountVertices(); nv != 5 {
		t.Fatalf("vertices = %d, want 5", nv)
	}
	if ne, _ := r.CountEdges(); ne != 4 {
		t.Fatalf("edges = %d, want 4", ne)
	}
	if v, ok := r.VertexProp(res.VertexIDs[0], "bio"); !ok || len(v.Str()) != 100 {
		t.Fatalf("100-byte bio property lost: %v %v", v, ok)
	}
	if !r.HasVertexPropIndex("name") {
		t.Fatal("index definition lost")
	}
	// The replayed bookkeeping is the closed engine's, exactly: the same
	// tokens in the same order, the same index membership.
	if !reflect.DeepEqual(r.labels, labels) || !reflect.DeepEqual(r.propKeys, propKeys) {
		t.Fatalf("dictionaries after reopen = %+v %+v, want %+v %+v", r.labels, r.propKeys, labels, propKeys)
	}
	if !reflect.DeepEqual(r.vindex, vindex) {
		t.Fatalf("index after reopen = %+v, want %+v", r.vindex, vindex)
	}
	ids := core.Collect(r.VerticesByProp("name", core.S("d")))
	if len(ids) != 1 || ids[0] != extra {
		t.Fatalf("index lookup after reopen = %v, want [%d]", ids, extra)
	}
	if lbl, err := r.EdgeLabel(res.EdgeIDs[3]); err != nil || lbl != "likes" {
		t.Fatalf("label dictionary broken: %q %v", lbl, err)
	}
	if r.HasEdge(res.EdgeIDs[1]) {
		t.Fatal("removed edge resurrected")
	}
	if rep := r.Audit(); !rep.Ok() {
		t.Fatalf("audit after reopen: %v", rep.Problems)
	}

	// Allocation after reopen must not collide with live objects.
	more, err := r.AddVertex(nil)
	if err != nil {
		t.Fatal(err)
	}
	if more < core.ID(wantNext) {
		t.Fatalf("reused id %d (allocator was at %d)", more, wantNext)
	}
}

// TestDurableCrashAudit crashes a simulated filesystem at several
// failpoints mid-write-storm; every recovered engine must pass Audit
// — the graph-level invariant that WAL tx units protect (an edge row
// never splits from its adjacency columns).
func TestDurableCrashAudit(t *testing.T) {
	storm := func(e *Engine) {
		res, err := e.BulkLoad(buildSmallGraph())
		if err != nil {
			return
		}
		ids := append([]core.ID(nil), res.VertexIDs...)
		for i := 0; i < 30; i++ {
			if e.kv.Err() != nil {
				return
			}
			switch i % 5 {
			case 0:
				id, err := e.AddVertex(core.Props{"n": core.I(int64(i))})
				if err == nil {
					ids = append(ids, id)
				}
			case 1, 2:
				e.AddEdge(ids[i%len(ids)], ids[(i+1)%len(ids)], "w", nil)
			case 3:
				e.SetVertexProp(ids[i%len(ids)], "n", core.I(int64(-i)))
			case 4:
				e.RemoveVertex(ids[len(ids)-1])
				ids = ids[:len(ids)-1]
			}
		}
	}

	// Bound the matrix with a fault-free dry run.
	dry := fsim.NewMem(fsim.Faults{})
	o := durableOpts()
	o.FS = dry
	e, _, err := OpenOptions(V10, "g", o)
	if err != nil {
		t.Fatal(err)
	}
	storm(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	total := dry.Ops()
	if total < 20 {
		t.Fatalf("storm produced only %d fs ops", total)
	}

	step := total/25 + 1
	for n := 1; n <= total; n += step {
		m := fsim.NewMem(fsim.Faults{CrashAtOp: n, TearWrites: true, DropRenames: true, Seed: int64(n)})
		o := durableOpts()
		o.FS = m
		if e, _, err := OpenOptions(V10, "g", o); err == nil {
			storm(e)
		}
		o.FS = m.Image()
		rec, _, err := OpenOptions(V10, "g", o)
		if err != nil {
			t.Fatalf("n=%d: recovery failed: %v", n, err)
		}
		if rep := rec.Audit(); !rep.Ok() {
			t.Fatalf("n=%d: audit failed: %v", n, rep.Problems)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("n=%d: close: %v", n, err)
		}
	}
}
