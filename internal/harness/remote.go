package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/remote"
)

// CatalogFingerprint identifies the measurement-relevant build of this
// binary: the registered engine catalog, the dataset catalog, the
// checkpoint record version and the wire protocol version. A scheduler
// and a worker with different fingerprints — an extra engine, a
// renamed dataset, a record-format bump — would plan different grids
// or emit incomparable records, so the remote handshake requires the
// fingerprints to be identical.
func CatalogFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "proto=%d;checkpoint=%d;", remote.ProtocolVersion, checkpointVersion)
	fmt.Fprintf(h, "engines=%q;", engines.Names())
	fmt.Fprintf(h, "datasets=%q;", datasets.Names())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// configFromFingerprint reconstructs a runnable configuration from the
// wire fingerprint. The Fingerprint carries exactly the
// result-relevant knobs, which is the point: a remote worker given
// only the fingerprint plans the same grid and measures the same
// logical cells as the scheduler. Concurrency knobs (Workers,
// CellWorkers) stay the worker's own business.
func configFromFingerprint(fp Fingerprint) Config {
	return Config{
		Engines:     fp.Engines,
		Datasets:    fp.Datasets,
		Scale:       fp.Scale,
		Timeout:     time.Duration(fp.TimeoutNS),
		BatchSize:   fp.BatchSize,
		Seed:        fp.Seed,
		FrozenClock: fp.Frozen,
	}
}

// WorkerHandler is the cmd/gdb-worker side of the remote transport:
// it vets scheduler handshakes against this build's catalog
// fingerprint and executes grid cells through a per-configuration
// Runner, so dataset graphs are generated once and shared across the
// cells of a run (and across schedulers retrying the same run). Only
// the most recent configuration's Runner is cached — a Runner pins
// its generated dataset graphs, and a long-lived worker serving many
// different runs must not accumulate one graph set per run; sessions
// already accepted keep their own Runner reference, so replacing the
// cache never disturbs a run in progress.
type WorkerHandler struct {
	// Exec is applied whole to every accepted run's configuration.
	Exec
	// FetchArtifacts lets accepted runs pull missing dataset artifacts
	// from their scheduler over the session connection before falling
	// back to local generation — the cold-fleet seeding path (gdb-worker
	// enables it by default; see -artifact-fetch). Fetched artifacts
	// are re-verified by fingerprint and CRC on arrival and land in
	// DatasetCacheDir via the same atomic write path generated ones
	// use, so — like the cache itself — fetching never changes results.
	FetchArtifacts bool

	mu     sync.Mutex
	key    string // canonical fingerprint JSON of the cached runner
	runner *Runner
}

// Accept implements remote.Handler.
func (h *WorkerHandler) Accept(hello remote.Hello, artifacts remote.ArtifactFetcher) (remote.Session, error) {
	catalog := CatalogFingerprint()
	if hello.Catalog != catalog {
		return nil, fmt.Errorf("catalog fingerprint mismatch (scheduler %.12s…, worker %.12s…): engine/dataset catalogs or record versions differ between the two builds", hello.Catalog, catalog)
	}
	var fp Fingerprint
	if err := json.Unmarshal(hello.Config, &fp); err != nil {
		return nil, fmt.Errorf("malformed run configuration: %v", err)
	}
	if fp.Version != checkpointVersion {
		return nil, fmt.Errorf("record version mismatch: scheduler writes v%d, worker v%d", fp.Version, checkpointVersion)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	key := string(hello.Config)
	r := h.runner
	if r == nil || h.key != key {
		cfg := configFromFingerprint(fp)
		cfg.Exec = h.Exec
		var err error
		r, err = NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		if jobs := planGrid(r.cfg.Engines, r.cfg.Datasets); len(jobs) != fp.Jobs {
			return nil, fmt.Errorf("grid plan drift: scheduler planned %d cells, worker plans %d", fp.Jobs, len(jobs))
		}
		h.key, h.runner = key, r
	}
	// Point dataset acquisition at this session's scheduler (latest
	// session wins — an older session's connection may already be
	// gone). A fetch over a dead connection just errors, and the
	// acquire path falls back to local generation.
	if h.FetchArtifacts && artifacts != nil {
		r.SetDatasetFetcher(artifacts.FetchArtifact)
	}
	return &workerSession{r: r}, nil
}

// workerSession executes cells of one accepted run.
type workerSession struct {
	r *Runner
}

// Execute implements remote.Session: it re-derives the grid plan from
// the shared fingerprint, verifies the scheduler's view of the cell
// matches, runs it, and returns the cell as the same JSON the
// checkpoint file uses — which is exactly why remote results can flow
// through the scheduler's stream/checkpoint path unchanged.
func (s *workerSession) Execute(spec remote.CellSpec) ([]byte, error) {
	jobs := planGrid(s.r.cfg.Engines, s.r.cfg.Datasets)
	if spec.Index < 0 || spec.Index >= len(jobs) {
		return nil, fmt.Errorf("cell index %d outside the %d-cell plan", spec.Index, len(jobs))
	}
	j := jobs[spec.Index]
	if spec.Kind != j.kind.String() || spec.Engine != j.engine || spec.Dataset != j.dataset {
		return nil, fmt.Errorf("cell %d plan mismatch: scheduler sent %s %s on %s, worker plans %s %s on %s",
			spec.Index, spec.Kind, spec.Engine, spec.Dataset, j.kind, j.engine, j.dataset)
	}
	c := s.r.runCell(spec.Index, j)
	return json.Marshal(&c)
}

// OpenArtifact implements remote.ArtifactProvider: it serves one
// dataset snapshot artifact to a fetching worker, out of the
// scheduler's own -dataset-cache when it holds the artifact (acquiring
// the dataset — and thereby populating the cache — first if needed),
// and by encoding the in-memory graph straight onto the wire
// otherwise. Snapshot encoding is deterministic, so both paths ship
// the same bytes. Requests whose content address does not match this
// run's configuration are refused: the scheduler only ever serves the
// artifacts its own grid uses.
func (r *Runner) OpenArtifact(name string, fp [32]byte) (io.ReadCloser, error) {
	known := false
	for _, d := range r.cfg.Datasets {
		known = known || d == name
	}
	spec := datasets.ByName(name)
	if !known || spec == nil {
		return nil, fmt.Errorf("dataset %q is not part of this run", name)
	}
	want := datasets.SnapshotFingerprint(name, r.cfg.Scale, spec.Seed)
	if fp != want {
		return nil, fmt.Errorf("artifact fingerprint mismatch for %s (requested %x…, this run serves %x…)", name, fp[:6], want[:6])
	}
	// Acquiring the dataset populates the cache on a miss (when one is
	// configured) and pins the graph for the in-memory fallback.
	ds := r.dataset(name)
	if dir := r.cfg.DatasetCacheDir; dir != "" {
		if f, err := os.Open(datasets.SnapshotPath(dir, name, fp)); err == nil {
			r.progressf("artifact %s: streaming cached snapshot to remote worker", name)
			return f, nil
		}
	}
	// No on-disk artifact (no cache dir, or the store failed): encode
	// the graph for the wire directly. The encoder goroutine is joined
	// by Close: a reader that abandons the stream mid-transfer must not
	// leave a writer running against a graph the run may be tearing
	// down.
	r.progressf("artifact %s: streaming snapshot to remote worker", name)
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pw.CloseWithError(datasets.WriteSnapshot(pw, ds.g, ds.rawJSON, fp))
	}()
	return &joinedPipe{PipeReader: pr, join: wg.Wait}, nil
}

// joinedPipe is an artifact stream whose Close waits for the encoder
// goroutine: closing the read end makes the writer's next Write return
// ErrClosedPipe, so the goroutine exits promptly and Close returns
// only once it has.
type joinedPipe struct {
	*io.PipeReader
	join func()
}

func (p *joinedPipe) Close() error {
	err := p.PipeReader.Close()
	p.join()
	return err
}

// dialRemotes connects and handshakes every configured worker
// address. Any failure is fatal to the run: the user asked for those
// workers, and silently degrading to local-only would hide a typo or
// a mismatched build for the whole grid. artifacts, when non-nil,
// serves the workers' dataset artifact requests (Config.ServeArtifacts).
func dialRemotes(addrs []string, fp Fingerprint, artifacts remote.ArtifactProvider) ([]*remote.Client, error) {
	cfgJSON, err := json.Marshal(fp)
	if err != nil {
		return nil, fmt.Errorf("harness: remote: %w", err)
	}
	hello := remote.Hello{Catalog: CatalogFingerprint(), Config: cfgJSON}
	var clients []*remote.Client
	for _, a := range addrs {
		c, err := remote.Dial(a, hello, artifacts)
		if err != nil {
			for _, open := range clients {
				open.Close()
			}
			return nil, fmt.Errorf("harness: remote worker %s: %w", a, err)
		}
		clients = append(clients, c)
	}
	return clients, nil
}

// remoteSlot runs one dispatch slot of a remote worker: it pulls
// cells from the shared queue, ships them over the wire, and feeds
// the results into the same completion path local workers use. Any
// failure — worker death, drain, a refused cell — requeues the cell
// and retires the slot. The requeued cell is first offered to a
// *different* live remote (the dead worker is excluded from ever
// seeing it again); only when no other live remote exists does it
// fall back to the local-only queue. Either way the grid always
// completes with at least the local workers.
func (r *Runner) remoteSlot(id int, cl *remote.Client, sched *cellScheduler, jobs []gridJob, cells []cell, finish func(int)) {
	for {
		i, ok := sched.nextRemote(id)
		if !ok {
			return
		}
		j := jobs[i]
		r.progressf("remote %s: cell %d (%s %s on %s)", cl.Addr(), i, j.kind, j.engine, j.dataset)
		payload, err := cl.Execute(remote.CellSpec{Index: i, Kind: j.kind.String(), Engine: j.engine, Dataset: j.dataset})
		if err == nil {
			var c cell
			if uerr := json.Unmarshal(payload, &c); uerr != nil {
				err = fmt.Errorf("remote %s: bad cell payload: %w", cl.Addr(), uerr)
			} else if c.Index != i {
				err = fmt.Errorf("remote %s: cell %d answered with index %d", cl.Addr(), i, c.Index)
			} else {
				cells[i] = c
				finish(i)
				sched.done()
				continue
			}
		}
		if sched.requeueRemote(i, id) {
			r.progressf("remote %s: cell %d reassigned to another live remote: %v", cl.Addr(), i, err)
		} else {
			r.progressf("remote %s: cell %d reassigned locally: %v", cl.Addr(), i, err)
		}
		return
	}
}
