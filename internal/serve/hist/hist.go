// Package hist implements an HDR-style latency histogram: log-linear
// buckets with a fixed number of linear sub-buckets per power of two,
// giving a bounded *relative* error (~1.6% with 7 sub-bucket bits) over
// the full int64 range at a few KiB of memory — the property the
// serving layer needs to report tail quantiles (p99, p999) from
// millions of samples without storing them.
//
// It records what it is given and corrects nothing: the serving layer
// keeps its open-loop latencies free of coordinated omission by
// measuring from each operation's intended start, and reports its
// closed-loop latencies as service time.
//
// The package is self-contained and allocation-free on the record path;
// merging is element-wise addition and therefore associative and
// commutative, so per-client histograms can be combined in any order
// (deterministic reports do not depend on goroutine join order).
package hist

import "math/bits"

const (
	// subBits fixes the precision: each power-of-two range is split
	// into 2^subBits linear sub-buckets, so the worst-case relative
	// error of a representative value is 2^-(subBits-1) ≈ 1.6%.
	subBits  = 7
	subCount = 1 << subBits // values < subCount are recorded exactly
	subHalf  = subCount / 2
	// nBuckets covers the whole non-negative int64 range.
	nBuckets = 64 - subBits + 1
	nSlots   = subCount + (nBuckets-1)*subHalf
)

// Histogram counts non-negative int64 values (the serving layer uses
// nanoseconds). The zero value is not usable; construct with New. Not
// safe for concurrent use — each client owns one and they are merged
// after the run.
type Histogram struct {
	counts [nSlots]int64
	total  int64
	min    int64 // exact, valid when total > 0
	max    int64 // exact, valid when total > 0
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// slot maps a value to its bucket index. Values below subCount land in
// the exact linear region; above it, the value's top subBits bits pick
// a sub-bucket within its power-of-two range.
func slot(v int64) int {
	if v < subCount {
		return int(v)
	}
	b := bits.Len64(uint64(v)) - subBits // ≥ 1
	sub := int(v >> uint(b))             // in [subHalf, subCount)
	return subCount + (b-1)*subHalf + (sub - subHalf)
}

// valueAt returns the representative (midpoint) value of a slot.
func valueAt(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	b := (i-subCount)/subHalf + 1
	sub := int64((i-subCount)%subHalf + subHalf)
	low := sub << uint(b)
	return low + (int64(1)<<uint(b))/2
}

// Record adds one sample. Negative values are clamped to zero (a
// latency can round to a negative under a coarse clock; dropping the
// sample would bias the count).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[slot(v)]++
	h.total++
}

// Merge adds o's samples into h. Element-wise addition: associative,
// commutative, and equivalent to having recorded all samples into one
// histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Min returns the smallest recorded sample, exactly. Zero when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample, exactly. Zero when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the mean of the bucket-representative values.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		if c != 0 {
			sum += float64(valueAt(i)) * float64(c)
		}
	}
	return sum / float64(h.total)
}

// Quantile returns the value at quantile q ∈ [0, 1]: the representative
// value of the bucket holding the ⌈q·count⌉-th smallest sample, clamped
// to the exact observed [Min, Max]. Zero when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	target := int64(q*float64(h.total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > h.total {
		target = h.total
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := valueAt(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
