package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
)

// syncBuffer is a goroutine-safe progress sink: the worker runner
// writes per-cell lines from executor goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRemoteColdWorkerFetchesArtifacts is the acceptance contract of
// artifact shipping: a worker with an empty dataset cache pointed at
// an artifact-serving scheduler must acquire every dataset over the
// wire — no local generation — land the artifacts in its cache
// byte-identical to the scheduler's, and produce an export
// byte-identical to an all-local run.
func TestRemoteColdWorkerFetchesArtifacts(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.Workers = 1

	local, _ := exportRun(t, cfg)

	schedCache, workerCache := t.TempDir(), t.TempDir()
	workerProgress := &syncBuffer{}
	h := &WorkerHandler{
		Exec:           Exec{DatasetCacheDir: workerCache, Progress: workerProgress},
		FetchArtifacts: true,
	}
	cfg.Remote = []string{startWorker(t, h, 4)}
	cfg.ServeArtifacts = true
	cfg.DatasetCacheDir = schedCache
	distributed, dispatched := remoteCells(t, cfg)

	if dispatched == 0 {
		t.Fatal("no cells were dispatched to the remote worker")
	}
	wp := workerProgress.String()
	if !strings.Contains(wp, "fetched frb-s from scheduler") {
		t.Fatalf("worker did not fetch the dataset artifact:\n%s", wp)
	}
	if strings.Contains(wp, "generated") {
		t.Fatalf("cold worker generated a dataset despite artifact shipping:\n%s", wp)
	}
	if !bytes.Equal(local, distributed) {
		t.Fatal("cold-fleet export diverges from all-local run")
	}

	// The shipped artifact must be byte-identical to the scheduler's —
	// the worker's cache is now warm with the exact same content.
	spec := datasets.ByName("frb-s")
	fp := datasets.SnapshotFingerprint("frb-s", cfg.Scale, spec.Seed)
	schedArt, err := os.ReadFile(datasets.SnapshotPath(schedCache, "frb-s", fp))
	if err != nil {
		t.Fatalf("scheduler cache not populated: %v", err)
	}
	workerArt, err := os.ReadFile(datasets.SnapshotPath(workerCache, "frb-s", fp))
	if err != nil {
		t.Fatalf("worker cache not populated by the fetch: %v", err)
	}
	if !bytes.Equal(schedArt, workerArt) {
		t.Fatal("shipped artifact differs from the scheduler's")
	}
}

// TestRemoteColdWorkerFetchesWithoutSchedulerCache: a scheduler with
// no -dataset-cache of its own still serves artifacts by encoding its
// in-memory graphs onto the wire; the worker cannot tell the
// difference.
func TestRemoteColdWorkerFetchesWithoutSchedulerCache(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.Workers = 1

	local, _ := exportRun(t, cfg)

	workerProgress := &syncBuffer{}
	h := &WorkerHandler{
		Exec:           Exec{DatasetCacheDir: t.TempDir(), Progress: workerProgress},
		FetchArtifacts: true,
	}
	cfg.Remote = []string{startWorker(t, h, 4)}
	cfg.ServeArtifacts = true
	distributed, dispatched := remoteCells(t, cfg)

	if dispatched == 0 {
		t.Fatal("no cells were dispatched to the remote worker")
	}
	wp := workerProgress.String()
	if !strings.Contains(wp, "fetched frb-s from scheduler") || strings.Contains(wp, "generated") {
		t.Fatalf("worker acquisition went wrong:\n%s", wp)
	}
	if !bytes.Equal(local, distributed) {
		t.Fatal("export diverges when artifacts are served from memory")
	}
}

// TestOpenArtifactRefusesForeignRequests: the scheduler only serves
// the artifacts its own grid uses — a dataset outside the run or a
// fingerprint that disagrees with the run's scale/seed is refused, and
// the refusal travels back as the worker's generate-locally cue.
func TestOpenArtifactRefusesForeignRequests(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := datasets.ByName("frb-s")
	good := datasets.SnapshotFingerprint("frb-s", cfg.Scale, spec.Seed)

	if _, err := r.OpenArtifact("ldbc", good); err == nil || !strings.Contains(err.Error(), "not part of this run") {
		t.Fatalf("foreign dataset served: %v", err)
	}
	bad := datasets.SnapshotFingerprint("frb-s", cfg.Scale*2, spec.Seed)
	if _, err := r.OpenArtifact("frb-s", bad); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("mismatched fingerprint served: %v", err)
	}

	// The matching request streams a valid artifact that decodes to
	// the run's own graph.
	rc, err := r.OpenArtifact("frb-s", good)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	g, _, err := datasets.ReadSnapshot(rc, good)
	if err != nil {
		t.Fatalf("served artifact invalid: %v", err)
	}
	if g.NumVertices() != r.graph("frb-s").NumVertices() {
		t.Fatal("served artifact decodes to a different graph")
	}
}

// TestOpenArtifactCloseJoinsEncoder: the memory-streaming path runs
// its snapshot encoder in a goroutine; abandoning the stream mid-read
// must join that goroutine — Close only returns once the encoder has
// exited, so no writer can outlive the request and touch a graph the
// run is tearing down.
func TestOpenArtifactCloseJoinsEncoder(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := datasets.ByName("frb-s")
	fp := datasets.SnapshotFingerprint("frb-s", cfg.Scale, spec.Seed)
	rc, err := r.OpenArtifact("frb-s", fp)
	if err != nil {
		t.Fatal(err)
	}
	// Consume a sliver so the encoder is mid-stream, then abandon it.
	if _, err := io.ReadFull(rc, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rc.Close() }()
	select {
	case <-done:
		// Close returned, so the encoder goroutine has exited.
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return; encoder goroutine was not joined")
	}
}

// TestWorkerFetchFallsBackToGeneration: a worker whose scheduler
// refuses artifact requests (serving disabled) must still complete its
// cells by generating locally — shipping is an optimization, never a
// dependency.
func TestWorkerFetchFallsBackToGeneration(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"frb-s"}
	cfg.BatchSize = 2
	cfg.FrozenClock = true
	cfg.Workers = 1

	local, _ := exportRun(t, cfg)

	workerProgress := &syncBuffer{}
	h := &WorkerHandler{
		Exec:           Exec{DatasetCacheDir: t.TempDir(), Progress: workerProgress},
		FetchArtifacts: true,
	}
	cfg.Remote = []string{startWorker(t, h, 4)}
	cfg.ServeArtifacts = false // scheduler refuses every request
	distributed, dispatched := remoteCells(t, cfg)

	if dispatched == 0 {
		t.Fatal("no cells were dispatched to the remote worker")
	}
	wp := workerProgress.String()
	if !strings.Contains(wp, "generated") {
		t.Fatalf("worker did not fall back to generation:\n%s", wp)
	}
	if strings.Contains(wp, "fetched frb-s") {
		t.Fatalf("worker claims a fetch from a non-serving scheduler:\n%s", wp)
	}
	if !bytes.Equal(local, distributed) {
		t.Fatal("export diverges under the generation fallback")
	}
}

// TestFetchedArtifactFeedsExports: the fetched path must carry the
// GraphSON raw size through to load measurements exactly like the
// generated path (the "Raw Data" bar of Figure 1) — a worker that
// fetched its dataset reports the same RawJSON as one that generated
// it. Pinned at the datasets layer here; the e2e byte-compare above
// covers the full export.
func TestFetchedArtifactFeedsExports(t *testing.T) {
	spec := datasets.ByName("frb-s")
	g := spec.Generate(0.001)
	fp := datasets.SnapshotFingerprint("frb-s", 0.001, spec.Seed)
	raw := datasets.RawJSONSize(g)
	dir := t.TempDir()
	path := datasets.SnapshotPath(dir, "frb-s", fp)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := datasets.WriteSnapshot(f, g, raw, fp); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fetch := func(name string, want [32]byte) (io.ReadCloser, error) {
		return os.Open(filepath.Join(dir, filepath.Base(path)))
	}
	_, st, err := datasets.AcquireWith("frb-s", 0.001, datasets.AcquireOptions{CacheDir: t.TempDir(), Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Fetched || st.RawJSON != raw {
		t.Fatalf("fetched acquire lost the raw size: %+v (want RawJSON %d)", st, raw)
	}
}
