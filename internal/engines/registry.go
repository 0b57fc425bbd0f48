// Package engines registers the nine graph database configurations of
// the study (Table 1) under stable names, so the harness, the CLI tools
// and the benchmarks address them uniformly.
package engines

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/engines/arango"
	"repro/internal/engines/blaze"
	"repro/internal/engines/neo"
	"repro/internal/engines/orient"
	"repro/internal/engines/sparksee"
	"repro/internal/engines/sqlg"
	"repro/internal/engines/titan"
	"repro/internal/lsm"
)

// Names of the registered configurations, in the paper's listing order.
var names = []string{
	"arango",
	"blaze",
	"neo-1.9",
	"neo-3.0",
	"orient",
	"sparksee",
	"sqlg",
	"titan-0.5",
	"titan-1.0",
}

// mu guards names and registry: the harness resolves constructors from
// concurrent grid workers, and Register may add entries at any time.
var mu sync.RWMutex

var registry = map[string]core.Constructor{
	"arango":    func() core.Engine { return arango.New() },
	"blaze":     func() core.Engine { return blaze.New() },
	"neo-1.9":   func() core.Engine { return neo.New(neo.V19) },
	"neo-3.0":   func() core.Engine { return neo.New(neo.V30) },
	"orient":    func() core.Engine { return orient.New() },
	"sparksee":  func() core.Engine { return sparksee.New() },
	"sqlg":      func() core.Engine { return sqlg.New() },
	"titan-0.5": func() core.Engine { return titan.New(titan.V05) },
	"titan-1.0": func() core.Engine { return titan.New(titan.V10) },
}

// Names returns the registered configuration names in listing order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), names...)
}

// Register adds (or replaces) a configuration under name — the hook
// for experimental engines and for test doubles such as harness DNF
// fixtures. It returns a function that undoes the registration,
// restoring any constructor it replaced.
func Register(name string, c core.Constructor) (unregister func()) {
	mu.Lock()
	defer mu.Unlock()
	old, replaced := registry[name]
	registry[name] = c
	if !replaced {
		names = append(names, name)
	}
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if replaced {
			registry[name] = old
			return
		}
		delete(registry, name)
		for i, n := range names {
			if n == name {
				names = append(names[:i], names[i+1:]...)
				break
			}
		}
	}
}

// SupportsDurable reports whether OpenDurable can build the named
// engine over a write-ahead-logged store.
func SupportsDurable(name string) bool {
	return name == "titan-0.5" || name == "titan-1.0"
}

// OpenDurable builds the named engine in durable mode, rooted at dir:
// the engine's store recovers any existing WAL there and logs every
// subsequent write. Only the Titan configurations have a durable
// substrate (their LSM store plays the Cassandra role); every other
// name errors.
func OpenDurable(name, dir string) (core.Engine, *lsm.RecoveryStats, error) {
	switch name {
	case "titan-0.5":
		return titan.Open(titan.V05, dir)
	case "titan-1.0":
		return titan.Open(titan.V10, dir)
	default:
		return nil, nil, fmt.Errorf("engines: %q has no durable mode (supported: titan-0.5, titan-1.0)", name)
	}
}

// DurableReport is DurableAudit's JSON-ready result: the recovery
// counters from replaying the WAL plus the graph-level integrity
// audit. gdb-serve's smoke test checks records_replayed and audit_ok
// after a kill -9.
type DurableReport struct {
	Engine          string   `json:"engine"`
	Dir             string   `json:"lsm_dir"`
	RecordsReplayed int64    `json:"records_replayed"`
	PutsReplayed    int64    `json:"puts_replayed"`
	DeletesReplayed int64    `json:"deletes_replayed"`
	BytesTruncated  int64    `json:"bytes_truncated"`
	SegmentsDropped int      `json:"segments_dropped"`
	RecoveryWallNS  int64    `json:"recovery_wall_ns"`
	Vertices        int64    `json:"vertices"`
	Edges           int64    `json:"edges"`
	NextID          int64    `json:"next_id"`
	AuditOk         bool     `json:"audit_ok"`
	Problems        []string `json:"problems,omitempty"`
}

// DurableAudit recovers the durable store at dir for the named engine
// and runs the engine's integrity audit, without serving anything.
func DurableAudit(name, dir string) (*DurableReport, error) {
	e, rst, err := OpenDurable(name, dir)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	te, ok := e.(*titan.Engine)
	if !ok {
		return nil, fmt.Errorf("engines: %q durable engine has no audit", name)
	}
	rep := te.Audit()
	return &DurableReport{
		Engine:          name,
		Dir:             dir,
		RecordsReplayed: rst.Records,
		PutsReplayed:    rst.Puts,
		DeletesReplayed: rst.Deletes,
		BytesTruncated:  rst.BytesTruncated,
		SegmentsDropped: rst.SegmentsDropped,
		RecoveryWallNS:  rst.WallNS,
		Vertices:        rep.Vertices,
		Edges:           rep.Edges,
		NextID:          rep.NextID,
		AuditOk:         rep.Ok(),
		Problems:        rep.Problems,
	}, nil
}

// New builds a fresh engine by name.
func New(name string) (core.Engine, error) {
	mu.RLock()
	c, ok := registry[name]
	mu.RUnlock()
	if !ok {
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("engines: unknown engine %q (known: %v)", name, known)
	}
	return c(), nil
}

// Constructor returns the named constructor, or nil.
func Constructor(name string) core.Constructor {
	mu.RLock()
	defer mu.RUnlock()
	return registry[name]
}
