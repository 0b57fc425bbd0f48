package core

import (
	"sort"
	"sync/atomic"
)

// PlanStats is the cheap cardinality summary gremlin's Explain reads:
// vertex/edge totals, per-label edge counts and log-bucketed degree
// histograms, all derived in one pass from the CSR snapshot a dataset
// graph already carries. No statistics machinery — these are exactly
// the signals Graph.Snapshot() computes anyway, packaged so a plan's
// estimated cardinalities can be rendered without touching the engine.
//
// Stats are taken at bulk-load time and never refreshed: they feed
// only the rendered estimates, never execution or results, so
// staleness after mutation is harmless.
type PlanStats struct {
	// V and E are the snapshotted vertex and edge counts.
	V, E int64

	// labels is the sorted distinct edge label set; labelEdges[i] is
	// the number of edges carrying labels[i].
	labels     []string
	labelEdges []int64

	// degHist[d][b] counts vertices whose degree in direction d has
	// bit-length b (bucket 0 holds degree-0 vertices). Three rows:
	// DirOut, DirIn, DirBoth.
	degHist [3][maxDegBits]int64
}

// maxDegBits bounds the degree histogram: bit-length of an int32
// degree never exceeds 31, plus the zero bucket.
const maxDegBits = 32

// EdgesWithLabel returns the number of snapshotted edges carrying the
// label, and whether the label exists at all.
func (s *PlanStats) EdgesWithLabel(label string) (int64, bool) {
	i := sort.SearchStrings(s.labels, label)
	if i < len(s.labels) && s.labels[i] == label {
		return s.labelEdges[i], true
	}
	return 0, false
}

// LabelSelectivity estimates the fraction of edges that carry the
// label.
func (s *PlanStats) LabelSelectivity(label string) float64 {
	if s.E == 0 {
		return 0
	}
	n, _ := s.EdgesWithLabel(label)
	return float64(n) / float64(s.E)
}

// DegreeAtLeastFrac estimates the fraction of vertices whose degree in
// direction d is at least k, from the log-bucketed histogram: buckets
// entirely above k count fully, the bucket straddling k counts by its
// covered fraction.
func (s *PlanStats) DegreeAtLeastFrac(d Direction, k int64) float64 {
	if s.V == 0 {
		return 0
	}
	if k <= 0 {
		return 1
	}
	h := &s.degHist[d]
	var n float64
	for b := 1; b < maxDegBits; b++ {
		lo := int64(1) << (b - 1) // smallest degree in bucket b
		hi := lo<<1 - 1           // largest
		switch {
		case lo >= k:
			n += float64(h[b])
		case hi >= k:
			// k falls inside this bucket: assume uniform occupancy.
			n += float64(h[b]) * float64(hi-k+1) / float64(hi-lo+1)
		}
	}
	return n / float64(s.V)
}

// AvgDegree estimates the mean per-vertex fan-out in direction d,
// restricted to the given edge labels (all labels when none given).
func (s *PlanStats) AvgDegree(d Direction, labels []string) float64 {
	if s.V == 0 {
		return 0
	}
	edges := s.E
	if len(labels) > 0 {
		edges = 0
		for _, l := range labels {
			n, _ := s.EdgesWithLabel(l)
			edges += n
		}
	}
	per := float64(edges) / float64(s.V)
	if d == DirBoth {
		per *= 2
	}
	return per
}

// PlanStatsProvider is implemented by engines that retain planning
// statistics from their bulk-loaded dataset. gremlin's Explain
// consults it through a type assertion; engines without stats (or
// instances populated element by element, as in the shell) render
// unknown estimates. Like core.ConcurrentReader, this is an
// optional capability, not part of the Engine contract.
type PlanStatsProvider interface {
	// PlanStats returns the load-time statistics, or nil when none
	// were captured.
	PlanStats() *PlanStats
}

// PlanStatsHolder is an embeddable PlanStatsProvider: an engine embeds
// it and calls CapturePlanStats from its BulkLoad, after which Explain
// can read the dataset's cardinality signals through the engine.
// Engines populated element by element (the shell) never capture, and
// PlanStats stays nil — Explain then renders unknown estimates.
type PlanStatsHolder struct{ stats statsCache }

// PlanStats returns the captured statistics, or nil.
func (h *PlanStatsHolder) PlanStats() *PlanStats { return h.stats.Load() }

// CapturePlanStats derives and retains the planner statistics of the
// bulk-loaded graph. The stats are shared with every other engine
// loading the same graph — they live on the graph's CSR snapshot.
func (h *PlanStatsHolder) CapturePlanStats(g *Graph) {
	h.stats.Store(g.Snapshot().PlanStats())
}

// ReleasePlanStats drops the captured statistics, as Close does with
// the rest of a closed engine's data.
func (h *PlanStatsHolder) ReleasePlanStats() { h.stats.Store(nil) }

// CopyPlanStats retains the statistics that from holds, as an engine's
// copy of a loaded instance does. The stats are immutable and shared.
func (h *PlanStatsHolder) CopyPlanStats(from *PlanStatsHolder) { h.stats.Store(from.stats.Load()) }

// PlanStats derives (and caches) the planner statistics of this
// snapshot. Concurrent first calls may race to build, but every build
// produces identical contents, so whichever pointer wins is
// equivalent — the same contract Graph.Snapshot has.
func (c *CSR) PlanStats() *PlanStats {
	if s := c.stats.Load(); s != nil {
		return s
	}
	s := buildPlanStats(c)
	c.stats.Store(s)
	return s
}

func buildPlanStats(c *CSR) *PlanStats {
	s := &PlanStats{
		V:      int64(c.NumVertices()),
		E:      int64(c.NumEdges()),
		labels: c.Labels,
	}
	s.labelEdges = make([]int64, len(c.Labels))
	for i := range c.Labels {
		s.labelEdges[i] = int64(c.LabelEdgeCount(i))
	}
	for v := 0; v < c.NumVertices(); v++ {
		s.degHist[DirOut][bitLen(c.OutDegree(v))]++
		s.degHist[DirIn][bitLen(c.InDegree(v))]++
		s.degHist[DirBoth][bitLen(c.Degree(v))]++
	}
	return s
}

// bitLen returns the bucket index of a degree: 0 for degree 0, else
// the position of the highest set bit plus one.
func bitLen(d int) int {
	b := 0
	for d > 0 {
		b++
		d >>= 1
	}
	return b
}

// statsCache is the cached-stats slot embedded in CSR.
type statsCache = atomic.Pointer[PlanStats]
