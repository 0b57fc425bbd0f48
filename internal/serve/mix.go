package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// opKind enumerates the operation classes a serving mix draws from.
// The order is part of the report schema (per_op entries appear in
// this order) and of the seeded draw (thresholds are checked in this
// order), so it must not be rearranged.
type opKind uint8

const (
	opRead opKind = iota
	opTraverse
	opInsert
	opUpdate
	nOpKinds
)

func (k opKind) String() string {
	switch k {
	case opRead:
		return "read"
	case opTraverse:
		return "traverse"
	case opInsert:
		return "insert"
	case opUpdate:
		return "update"
	}
	return "?"
}

// Mix is a workload composition in integer weights (conventionally
// percentages). Reads fetch a vertex's properties, traversals run a
// bounded BFS, inserts add a vertex wired to the loaded graph, updates
// overwrite a vertex property.
type Mix struct {
	Read     int
	Traverse int
	Insert   int
	Update   int
}

// DefaultMix is the read-mostly interactive composition gdb-serve uses
// when no -mix is given.
var DefaultMix = Mix{Read: 70, Traverse: 30}

// ParseMix parses "read=70,traverse=20,insert=5,update=5". Omitted
// kinds weigh zero; the weights must pass check.
func ParseMix(s string) (Mix, error) {
	var m Mix
	fields := map[string]*int{
		"read":     &m.Read,
		"traverse": &m.Traverse,
		"insert":   &m.Insert,
		"update":   &m.Update,
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("mix term %q: want kind=weight", part)
		}
		dst, known := fields[strings.TrimSpace(k)]
		if !known {
			return Mix{}, fmt.Errorf("mix term %q: unknown kind (read, traverse, insert, update)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 0 {
			return Mix{}, fmt.Errorf("mix term %q: weight must be a non-negative integer", part)
		}
		*dst = n
	}
	if err := m.check(); err != nil {
		return Mix{}, fmt.Errorf("mix %q: %w", s, err)
	}
	return m, nil
}

// check rejects a mix draw cannot use: a negative weight, or weights
// summing to zero or past math.MaxInt32. It sums term by term, so
// nothing wraps, and the total fits an int on every platform.
func (m Mix) check() error {
	total := 0
	for _, w := range []int{m.Read, m.Traverse, m.Insert, m.Update} {
		if w < 0 {
			return fmt.Errorf("negative weight %d", w)
		}
		if w > math.MaxInt32-total {
			return fmt.Errorf("weights sum past %d", math.MaxInt32)
		}
		total += w
	}
	if total == 0 {
		return fmt.Errorf("weights sum to zero")
	}
	return nil
}

func (m Mix) total() int { return m.Read + m.Traverse + m.Insert + m.Update }

// Mutating reports whether the mix contains write operations — such a
// mix requires the engine to grant core.ConcurrentWriter.
func (m Mix) Mutating() bool { return m.Insert+m.Update > 0 }

// String renders the mix in canonical order with zero-weight kinds
// omitted, suitable for the report.
func (m Mix) String() string {
	type kv struct {
		k string
		v int
	}
	parts := []kv{{"read", m.Read}, {"traverse", m.Traverse}, {"insert", m.Insert}, {"update", m.Update}}
	var b strings.Builder
	for _, p := range parts {
		if p.v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", p.k, p.v)
	}
	return b.String()
}

// draw picks the next op kind from the mix, consuming one variate.
func (m Mix) draw(rng *rand.Rand) opKind {
	p := rng.Intn(m.total())
	if p -= m.Read; p < 0 {
		return opRead
	}
	if p -= m.Traverse; p < 0 {
		return opTraverse
	}
	if p -= m.Insert; p < 0 {
		return opInsert
	}
	return opUpdate
}

// op is one intended operation: a kind plus two integer parameters
// whose meaning depends on the kind (base-vertex index, BFS depth,
// property payload). Ops carry *intent*, never outcomes, so the
// operation log is identical across runs and interleavings.
type op struct {
	Kind opKind
	A    int64
	B    int64
}

// genOp draws one operation. nBase is the number of loaded base
// vertices parameters index into; the draw sequence per client is a
// pure function of the client's rng state.
func genOp(rng *rand.Rand, m Mix, nBase int) op {
	k := m.draw(rng)
	switch k {
	case opRead:
		return op{Kind: k, A: int64(rng.Intn(nBase))}
	case opTraverse:
		return op{Kind: k, A: int64(rng.Intn(nBase)), B: int64(1 + rng.Intn(3))}
	case opInsert:
		return op{Kind: k, A: int64(rng.Intn(nBase)), B: rng.Int63n(1 << 30)}
	default: // opUpdate
		return op{Kind: k, A: int64(rng.Intn(nBase)), B: rng.Int63n(1 << 30)}
	}
}

// clientRNG derives the per-client stream. Clients get well-separated
// seeds so neighbouring client indexes do not produce correlated
// streams under math/rand's LCG-seeded source.
func clientRNG(seed int64, client int) *rand.Rand {
	const spread = int64(-0x61c8864680b583eb) // golden-ratio multiplier, as int64
	return rand.New(rand.NewSource(seed ^ (int64(client)+1)*spread))
}
