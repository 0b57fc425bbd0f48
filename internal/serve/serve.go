// Package serve is the sustained-traffic serving mode: where the
// harness measures isolated query latencies on a quiesced engine (the
// paper's methodology), serve drives one engine+dataset with N
// concurrent clients issuing a seeded mixed workload and reports
// throughput plus latency quantiles — the contended, warm-cache regime
// a production deployment actually runs in.
//
// Two loop disciplines are supported. In the *closed* loop each client
// issues its next operation the moment the previous one completes, and
// the recorded latency is pure service time: throughput is the
// measurement, latency the side effect. In the *open* loop (-rate)
// arrivals follow a seeded Poisson process that does not slow down when
// the engine does; latency is measured from the *intended* arrival
// time, so queueing delay is included and the numbers are free of
// coordinated omission (see internal/serve/hist and METHODOLOGY.md).
//
// Engines are accessed through core.Guard, which enforces the
// documented concurrency contract (exclusive writer, shared readers;
// full serialization for ConcurrentReader-vetoing engines). Mixes
// containing writes require the engine to grant core.ConcurrentWriter.
//
// Each client draws its operations from its own seeded stream, so with
// a per-client op count (Config.Ops) the same seed, mix and rate yield
// a byte-identical operation log whatever the goroutine interleaving —
// the property the replay tests protect. The clock is injectable
// (Runner), which keeps the executor testable without the wall clock.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve/hist"
)

// Config describes one serving run. Engine and Base come from the
// caller (cmd/gdb-serve loads a dataset and passes the loaded vertex
// IDs) so the serve layer never touches dataset generation.
type Config struct {
	// Engine is the engine under test, unguarded; serve wraps it in
	// core.Guard itself.
	Engine core.Engine
	// EngineName and Dataset label the report; they do not affect
	// execution.
	EngineName string
	Dataset    string
	// Base is the pool of loaded vertex IDs operations draw targets
	// from. Must be non-empty.
	Base []core.ID
	// Clients is the number of concurrent clients, one goroutine each.
	// At least 1.
	Clients int
	// Ops is the per-client operation count. It may be 0, in which case
	// Duration bounds the run instead.
	Ops int
	// Duration bounds the run when Ops is 0.
	Duration time.Duration
	// Rate is the total target arrival rate in ops/sec across all
	// clients. Zero selects the closed loop.
	Rate float64
	// Mix is the workload composition; zero value falls back to
	// DefaultMix.
	Mix Mix
	// Seed drives every random choice (per-client op streams and
	// arrival processes).
	Seed int64
	// OpLog, when non-nil, receives the intended-operation log as JSON
	// lines sorted by (client, seq).
	OpLog io.Writer
}

// Report is the JSON result schema. Field order is fixed; all maps are
// avoided so encoding is deterministic.
type Report struct {
	Schema     string  `json:"schema"`
	Engine     string  `json:"engine"`
	Dataset    string  `json:"dataset"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	Rate       float64 `json:"rate_ops_per_sec"`
	Mix        string  `json:"mix"`
	Seed       int64   `json:"seed"`
	DurationNS int64   `json:"duration_ns"`
	Ops        int64   `json:"ops"`
	Errors     int64   `json:"errors"`
	Throughput float64 `json:"throughput_ops_per_sec"`
	Latency    Summary `json:"latency_ns"`
	PerOp      []OpSum `json:"per_op"`
}

// Summary is a latency digest in nanoseconds.
type Summary struct {
	Min  int64 `json:"min"`
	Mean int64 `json:"mean"`
	P50  int64 `json:"p50"`
	P95  int64 `json:"p95"`
	P99  int64 `json:"p99"`
	P999 int64 `json:"p999"`
	Max  int64 `json:"max"`
}

// OpSum is the per-operation-kind slice of the report, in fixed kind
// order (read, traverse, insert, update); zero-count kinds are omitted.
type OpSum struct {
	Op     string `json:"op"`
	Count  int64  `json:"count"`
	Errors int64  `json:"errors"`
	Summary
}

// Schema is the report schema identifier.
const Schema = "gdb-serve/v2"

// Runner executes serving runs. The clock functions are injectable for
// tests; production construction via NewRunner uses the wall clock (the
// only wall-clock reads in the package, see the gdb-allow directives).
type Runner struct {
	now   func() time.Time
	since func(time.Time) time.Duration
	sleep func(time.Duration)
}

// NewRunner returns a Runner on the real clock.
func NewRunner() *Runner {
	return &Runner{
		now:   time.Now,   //lint:gdb-allow wallclock this IS the injectable clock's production default
		since: time.Since, //lint:gdb-allow wallclock this IS the injectable clock's production default
		sleep: time.Sleep,
	}
}

// client is one load-generating client's accumulated state.
type client struct {
	id   int
	ops  []op // issued ops in sequence order, kept only for Config.OpLog
	lat  *hist.Histogram
	kind [nOpKinds]*hist.Histogram
	errs [nOpKinds]int64
}

func newClient(id int) *client {
	c := &client{id: id, lat: hist.New()}
	for k := range c.kind {
		c.kind[k] = hist.New()
	}
	return c
}

func (c *client) record(k opKind, latency int64, err error) {
	c.lat.Record(latency)
	c.kind[k].Record(latency)
	if err != nil {
		c.errs[k]++
	}
}

// Run validates the config and executes the run.
func (r *Runner) Run(cfg Config) (*Report, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: no engine")
	}
	if len(cfg.Base) == 0 {
		return nil, fmt.Errorf("serve: empty base vertex pool (load a dataset first)")
	}
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("serve: clients = %d, want ≥ 1", cfg.Clients)
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix
	}
	if err := cfg.Mix.check(); err != nil {
		return nil, fmt.Errorf("serve: mix %s: %w", cfg.Mix, err)
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("serve: need -ops or -duration")
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("serve: negative rate")
	}
	g := core.Guard(cfg.Engine)
	if cfg.Mix.Mutating() && !g.ConcurrentWrites() {
		return nil, fmt.Errorf("serve: mix %q mutates but engine %s does not grant ConcurrentWriter; use a read-only mix (e.g. read=70,traverse=30)",
			cfg.Mix, cfg.EngineName)
	}

	clients, durationNS := r.runReal(cfg, g)

	if cfg.OpLog != nil {
		if err := writeOpLog(cfg.OpLog, clients); err != nil {
			return nil, fmt.Errorf("serve: op log: %w", err)
		}
	}
	return buildReport(cfg, clients, durationNS), nil
}

// Run executes one serving run on the real clock.
func Run(cfg Config) (*Report, error) { return NewRunner().Run(cfg) }

// interArrival draws the next exponential inter-arrival gap in
// nanoseconds for a per-client rate (total rate split evenly), never
// rounding to zero.
func interArrival(rng *rand.Rand, perClientRate float64) int64 {
	dt := int64(rng.ExpFloat64() * 1e9 / perClientRate)
	if dt < 1 {
		dt = 1
	}
	return dt
}

// --- executor: one goroutine per client on the injected clock ---

func (r *Runner) runReal(cfg Config, g *core.GuardedEngine) ([]*client, int64) {
	clients := make([]*client, cfg.Clients)
	for i := range clients {
		clients[i] = newClient(i)
	}
	perClientRate := 0.0
	if cfg.Rate > 0 {
		perClientRate = cfg.Rate / float64(cfg.Clients)
	}
	start := r.now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			rng := clientRNG(cfg.Seed, c.id)
			var offset int64 // intended start offset in ns (open loop)
			for seq := 0; ; seq++ {
				if cfg.Ops > 0 && seq >= cfg.Ops {
					return
				}
				if cfg.Duration > 0 && r.since(start) >= cfg.Duration {
					return
				}
				var intended time.Time
				if perClientRate > 0 {
					// Open loop: the arrival process does not wait for the
					// engine. Sleep only if ahead of schedule; if behind,
					// issue immediately and let the intended-start latency
					// absorb the queueing delay (coordinated-omission-safe).
					offset += interArrival(rng, perClientRate)
					intended = start.Add(time.Duration(offset))
					if ahead := intended.Sub(r.now()); ahead > 0 {
						r.sleep(ahead)
					}
				}
				o := genOp(rng, cfg.Mix, len(cfg.Base))
				if cfg.OpLog != nil {
					c.ops = append(c.ops, o)
				}
				var t0 time.Time
				if perClientRate == 0 {
					t0 = r.now()
				}
				err := executeOp(g, cfg.Base, o)
				var lat int64
				if perClientRate > 0 {
					lat = int64(r.since(intended))
				} else {
					lat = int64(r.since(t0))
				}
				c.record(o.Kind, lat, err)
			}
		}(c)
	}
	wg.Wait()
	return clients, int64(r.since(start))
}

// --- operation execution ---

// traverseCap bounds BFS materialization so one traversal cannot
// dominate a mixed schedule.
const traverseCap = 256

func executeOp(g core.Engine, base []core.ID, o op) error {
	switch o.Kind {
	case opRead:
		id := base[o.A]
		if !g.HasVertex(id) {
			return core.ErrNotFound
		}
		_, err := g.VertexProps(id)
		return err
	case opTraverse:
		frontier := []core.ID{base[o.A]}
		seen := map[core.ID]bool{base[o.A]: true}
		for d := int64(0); d < o.B && len(frontier) > 0 && len(seen) < traverseCap; d++ {
			var next []core.ID
			for _, v := range frontier {
				it := g.Neighbors(v, core.DirBoth)
				for id, ok := it(); ok; id, ok = it() {
					if !seen[id] {
						seen[id] = true
						next = append(next, id)
						if len(seen) >= traverseCap {
							break
						}
					}
				}
			}
			frontier = next
		}
		return nil
	case opInsert:
		v, err := g.AddVertex(core.Props{"serve_p": core.I(o.B)})
		if err != nil {
			return err
		}
		_, err = g.AddEdge(base[o.A], v, "serve", nil)
		return err
	case opUpdate:
		return g.SetVertexProp(base[o.A], "serve_u", core.I(o.B))
	}
	return fmt.Errorf("unknown op kind %d", o.Kind)
}

// --- op log and report ---

// opLogEntry is one line of the intended-operation log. Intent only —
// no outcomes, no timestamps — so the log is identical across runs and
// goroutine interleavings for a fixed op count.
type opLogEntry struct {
	Client int    `json:"client"`
	Seq    int    `json:"seq"`
	Op     string `json:"op"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

func writeOpLog(w io.Writer, clients []*client) error {
	enc := json.NewEncoder(w)
	for _, c := range clients {
		for seq, o := range c.ops {
			if err := enc.Encode(opLogEntry{Client: c.id, Seq: seq, Op: o.Kind.String(), A: o.A, B: o.B}); err != nil {
				return err
			}
		}
	}
	return nil
}

func summarize(h *hist.Histogram) Summary {
	return Summary{
		Min:  h.Min(),
		Mean: int64(h.Mean()),
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
		Max:  h.Max(),
	}
}

func buildReport(cfg Config, clients []*client, durationNS int64) *Report {
	total := hist.New()
	perKind := make([]*hist.Histogram, nOpKinds)
	for k := range perKind {
		perKind[k] = hist.New()
	}
	var errs int64
	var kindErrs [nOpKinds]int64
	for _, c := range clients {
		total.Merge(c.lat)
		for k := range c.kind {
			perKind[k].Merge(c.kind[k])
			kindErrs[k] += c.errs[k]
			errs += c.errs[k]
		}
	}
	loop := "closed"
	if cfg.Rate > 0 {
		loop = "open"
	}
	rep := &Report{
		Schema:     Schema,
		Engine:     cfg.EngineName,
		Dataset:    cfg.Dataset,
		Clients:    cfg.Clients,
		Loop:       loop,
		Rate:       cfg.Rate,
		Mix:        cfg.Mix.String(),
		Seed:       cfg.Seed,
		DurationNS: durationNS,
		Ops:        total.Count(),
		Errors:     errs,
		Latency:    summarize(total),
	}
	if durationNS > 0 {
		rep.Throughput = float64(rep.Ops) / (float64(durationNS) / 1e9)
	}
	for k := opKind(0); k < nOpKinds; k++ {
		h := perKind[k]
		if h.Count() == 0 && kindErrs[k] == 0 {
			continue
		}
		rep.PerOp = append(rep.PerOp, OpSum{
			Op:      k.String(),
			Count:   h.Count(),
			Errors:  kindErrs[k],
			Summary: summarize(h),
		})
	}
	return rep
}

// Encode renders the report as indented JSON with a trailing newline —
// the exact bytes gdb-serve emits and the replay tests compare.
func (r *Report) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
