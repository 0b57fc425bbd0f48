package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/remote"
)

// startWorker runs an in-process gdb-worker equivalent — remote.Server
// over WorkerHandler — on a localhost listener and returns its address.
func startWorker(t *testing.T, h *WorkerHandler, capacity int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &remote.Server{Handler: h, Capacity: capacity, Heartbeat: 50 * time.Millisecond}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

// remoteCells counts the progress lines for cells dispatched to remote
// workers.
func remoteCells(t *testing.T, cfg Config) ([]byte, int) {
	t.Helper()
	var progress bytes.Buffer
	cfg.Progress = &progress
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportJSON(res, &buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(progress.String(), "\n") {
		if strings.HasPrefix(line, "remote ") && strings.Contains(line, ": cell ") && !strings.Contains(line, "reassigned") {
			n++
		}
	}
	return buf.Bytes(), n
}

// TestRemoteGridByteIdentical is the acceptance contract of the remote
// subsystem: a grid split across two localhost workers produces
// ExportJSON output byte-identical to the same grid run purely
// locally under a frozen clock.
func TestRemoteGridByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.Workers = 2

	local, _ := exportRun(t, cfg)

	w1 := startWorker(t, &WorkerHandler{}, 2)
	w2 := startWorker(t, &WorkerHandler{}, 2)
	cfg.Remote = []string{w1, w2}
	distributed, dispatched := remoteCells(t, cfg)

	if dispatched == 0 {
		t.Fatal("no cells were dispatched to the remote workers")
	}
	if !bytes.Equal(local, distributed) {
		t.Fatalf("distributed export diverges from local run:\nlocal       %d bytes\ndistributed %d bytes", len(local), len(distributed))
	}
}

// TestRemoteResumeByteIdentical: the remote path must compose with
// checkpoint/resume — a run interrupted mid-grid (checkpoint truncated
// to a prefix, the footprint of a crash) and resumed with remote
// workers restores the local cells and computes the rest remotely,
// and the export stays byte-identical. Cells computed on another
// machine flow through the same stream/checkpoint path, so a later
// all-local resume can replay them too.
func TestRemoteResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true

	cfg.CheckpointPath = filepath.Join(dir, "fresh.jsonl")
	fresh, _ := exportRun(t, cfg)

	// Interrupted local run: keep a 3-cell prefix of its checkpoint.
	cfg.CheckpointPath = filepath.Join(dir, "interrupted.jsonl")
	exportRun(t, cfg)
	raw, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	const keep = 3
	if len(lines) < keep+2 {
		t.Fatalf("checkpoint too small: %d lines", len(lines))
	}
	if err := os.WriteFile(cfg.CheckpointPath, bytes.Join(lines[:1+keep], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume with a remote worker attached; the missing cells may run
	// on either side of the wire.
	cfg.Remote = []string{startWorker(t, &WorkerHandler{}, 2)}
	cfg.Resume = true
	resumed, _ := remoteCells(t, cfg)
	if !bytes.Equal(fresh, resumed) {
		t.Fatal("remote resume diverges from uninterrupted local run")
	}

	// The checkpoint now holds remotely-computed cells; a purely local
	// resume must replay them without executing anything.
	cfg.Remote = nil
	again, executed := exportRun(t, cfg)
	if executed != 0 {
		t.Fatalf("resume after remote run re-executed %d cells, want 0", executed)
	}
	if !bytes.Equal(fresh, again) {
		t.Fatal("replay of remotely-computed checkpoint diverges")
	}
}

// crashingWorker is a raw fake worker speaking the wire format
// directly: it accepts the handshake, takes one cell, and drops the
// connection — a worker crash mid-cell. Reimplementing the framing
// here (length prefix + tagged JSON) also pins the format
// independently of the remote package.
func crashingWorker(t *testing.T, accepted chan<- struct{}) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	readFrame := func(conn net.Conn) map[string]json.RawMessage {
		var hdr [4]byte
		if _, err := conn.Read(hdr[:]); err != nil {
			return nil
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		for off := 0; off < len(body); {
			n, err := conn.Read(body[off:])
			if err != nil {
				return nil
			}
			off += n
		}
		var f map[string]json.RawMessage
		if json.Unmarshal(body, &f) != nil {
			return nil
		}
		return f
	}
	writeFrame := func(conn net.Conn, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4+len(body))
		binary.BigEndian.PutUint32(buf, uint32(len(body)))
		copy(buf[4:], body)
		conn.Write(buf)
	}

	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if f := readFrame(conn); f == nil || string(f["type"]) != `"hello"` {
			t.Error("crashing worker: no hello frame")
			return
		}
		// Advertise enough slots to be offered cells even on a
		// single-CPU box where the local worker starts first. The fake
		// never emits heartbeats, so the advertised interval must be
		// generous enough that the scheduler's stall deadline does not
		// declare it dead while the datasets are still being generated
		// — the crash must be observed on the dropped connection, mid-
		// cell, not on a pre-grid liveness timeout.
		writeFrame(conn, map[string]any{
			"type":    "welcome",
			"welcome": map[string]any{"ok": true, "capacity": 4, "heartbeat_ns": int64(5 * time.Second)},
		})
		// Take one cell, then die without answering; any further cells
		// in flight die with the connection.
		if f := readFrame(conn); f != nil {
			close(accepted)
		}
	}()
	return l.Addr().String()
}

// TestRemoteWorkerCrashReassignedLocally: a worker that dies mid-cell
// must have its cell reassigned to the local queue, and the final
// export must be byte-identical to an all-local run — a crash costs
// wall-clock time, never results.
func TestRemoteWorkerCrashReassignedLocally(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	// One local worker: while it executes its first cell, the fake
	// worker's slots take cells from the shared queue, so the crash
	// path is exercised deterministically even on one CPU.
	cfg.Workers = 1

	local, _ := exportRun(t, cfg)

	accepted := make(chan struct{})
	cfg.Remote = []string{crashingWorker(t, accepted)}

	var progress bytes.Buffer
	cfg.Progress = &progress
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted:
	default:
		t.Fatal("the crashing worker never received a cell")
	}
	if !strings.Contains(progress.String(), "reassigned locally") {
		t.Fatalf("no reassignment recorded in progress:\n%s", progress.String())
	}
	var buf bytes.Buffer
	if err := ExportJSON(res, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, buf.Bytes()) {
		t.Fatal("export after worker crash diverges from all-local run")
	}
}

// TestRemoteWorkerCrashWithSecondRemote: when one of two remote
// workers dies mid-cell, the grid must still complete byte-identically
// — the dead worker's cell is requeued (to the surviving remote when
// its slots are still live, else locally; the scheduler-level
// preference is pinned by TestSchedulerRequeuePrefersAnotherRemote)
// and the dead worker never sees it again.
func TestRemoteWorkerCrashWithSecondRemote(t *testing.T) {
	// Both tiny datasets: the 10-cell grid exceeds the slot count
	// (4 crasher + 2 healthy + 1 local), so every slot — including the
	// crasher's — is guaranteed to receive a cell at the start.
	cfg := tinyConfig()
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.Workers = 1

	local, _ := exportRun(t, cfg)

	accepted := make(chan struct{})
	cfg.Remote = []string{crashingWorker(t, accepted), startWorker(t, &WorkerHandler{}, 2)}

	var progress bytes.Buffer
	cfg.Progress = &progress
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted:
	default:
		t.Fatal("the crashing worker never received a cell")
	}
	if !strings.Contains(progress.String(), "reassigned") {
		t.Fatalf("no reassignment recorded in progress:\n%s", progress.String())
	}
	var buf bytes.Buffer
	if err := ExportJSON(res, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, buf.Bytes()) {
		t.Fatal("export after worker crash diverges from all-local run")
	}
}

// TestRemoteHandshakeRejectsMismatchedCatalog: a scheduler whose
// catalog fingerprint differs from the worker's (different
// engine/dataset catalogs or record versions) must be refused at the
// handshake — silently mixing measurements from diverged builds is the
// one thing the handshake exists to prevent.
func TestRemoteHandshakeRejectsMismatchedCatalog(t *testing.T) {
	addr := startWorker(t, &WorkerHandler{}, 1)
	raw, err := json.Marshal(mustFingerprint(t, tinyConfig()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.Dial(addr, remote.Hello{Catalog: "some-other-build", Config: raw}, nil)
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("foreign-catalog scheduler accepted: %v", err)
	}
}

// TestWorkerSessionVerifiesPlan: the worker must refuse a cell whose
// spec disagrees with its own plan — the backstop against index drift.
func TestWorkerSessionVerifiesPlan(t *testing.T) {
	cfg := tinyConfig()
	fp := mustFingerprint(t, cfg)
	h := &WorkerHandler{}
	raw, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := h.Accept(remote.Hello{Catalog: CatalogFingerprint(), Config: raw}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(remote.CellSpec{Index: 0, Kind: "micro", Engine: "no-such", Dataset: "frb-s"}); err == nil || !strings.Contains(err.Error(), "plan mismatch") {
		t.Fatalf("mismatched cell spec accepted: %v", err)
	}
	if _, err := sess.Execute(remote.CellSpec{Index: 10_000, Kind: "micro", Engine: "neo-1.9", Dataset: "frb-s"}); err == nil {
		t.Fatal("out-of-plan index accepted")
	}
}

// mustFingerprint derives the wire fingerprint for a config the way
// Run does.
func mustFingerprint(t *testing.T, cfg Config) Fingerprint {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.fingerprint(len(planGrid(r.cfg.Engines, r.cfg.Datasets)))
}
