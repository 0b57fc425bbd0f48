package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the sorted-slice reference the histogram is measured
// against: the ⌈q·n⌉-th smallest sample.
func refQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// distributions spanning several decades, so quantiles land in buckets
// of very different widths.
func distributions() map[string]func(*rand.Rand) int64 {
	return map[string]func(*rand.Rand) int64{
		// Uniform microsecond-scale: exercises the linear region's edge.
		"uniform-small": func(r *rand.Rand) int64 { return 1 + r.Int63n(1000) },
		// Log-uniform over nine decades: every bucket size in play.
		"log-uniform": func(r *rand.Rand) int64 {
			return int64(math.Exp(r.Float64() * math.Log(1e9)))
		},
		// Exponential with a 1ms mean: the classic latency shape.
		"exponential": func(r *rand.Rand) int64 {
			return int64(r.ExpFloat64() * 1e6)
		},
		// Bimodal: fast path plus a 100× slower tail — tail quantiles
		// must not be dragged toward the big mode.
		"bimodal": func(r *rand.Rand) int64 {
			if r.Float64() < 0.95 {
				return 10_000 + r.Int63n(5_000)
			}
			return 1_000_000 + r.Int63n(500_000)
		},
	}
}

func TestQuantileAccuracyAgainstSortedReference(t *testing.T) {
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	names := make([]string, 0)
	dists := distributions()
	for name := range dists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gen := dists[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			h := New()
			samples := make([]int64, 0, 50_000)
			for i := 0; i < 50_000; i++ {
				v := gen(rng)
				h.Record(v)
				samples = append(samples, v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			if h.Count() != int64(len(samples)) {
				t.Fatalf("count = %d, want %d", h.Count(), len(samples))
			}
			if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
				t.Fatalf("min/max = %d/%d, want %d/%d", h.Min(), h.Max(), samples[0], samples[len(samples)-1])
			}
			for _, q := range quantiles {
				got := h.Quantile(q)
				want := refQuantile(samples, q)
				// Bucket-representative error bound: 2^-(subBits-1), plus
				// one ulp of slack for values in the exact region.
				tol := float64(want)/64 + 1
				if math.Abs(float64(got-want)) > tol {
					t.Errorf("q%.3f = %d, reference %d (tolerance %.0f)", q, got, want, tol)
				}
			}
		})
	}
}

func TestExactRegionIsExact(t *testing.T) {
	h := New()
	for v := int64(0); v < subCount; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 1} {
		got := h.Quantile(q)
		want := refQuantile(func() []int64 {
			s := make([]int64, subCount)
			for i := range s {
				s[i] = int64(i)
			}
			return s
		}(), q)
		if got != want {
			t.Fatalf("q%.2f = %d, want exact %d", q, got, want)
		}
	}
}

// TestMergeAssociative checks (a∪b)∪c = a∪(b∪c) = one histogram fed
// everything, bucket by bucket — the property that makes per-client
// histograms mergeable in any join order.
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(n int, scale float64) (*Histogram, []int64) {
		h := New()
		var vs []int64
		for i := 0; i < n; i++ {
			v := int64(rng.ExpFloat64() * scale)
			h.Record(v)
			vs = append(vs, v)
		}
		return h, vs
	}
	a, va := mk(1000, 1e5)
	b, vb := mk(500, 1e7)
	c, vc := mk(2000, 1e3)

	left := New()
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)

	right := New()
	bc := New()
	bc.Merge(b)
	bc.Merge(c)
	right.Merge(a)
	right.Merge(bc)

	direct := New()
	for _, v := range va {
		direct.Record(v)
	}
	for _, v := range vb {
		direct.Record(v)
	}
	for _, v := range vc {
		direct.Record(v)
	}

	for name, h := range map[string]*Histogram{"left": left, "right": right} {
		if h.counts != direct.counts {
			t.Fatalf("%s: merged buckets differ from direct recording", name)
		}
		if h.Count() != direct.Count() || h.Min() != direct.Min() || h.Max() != direct.Max() {
			t.Fatalf("%s: count/min/max diverged", name)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if h.Quantile(q) != direct.Quantile(q) {
				t.Fatalf("%s: q%.3f diverged", name, q)
			}
		}
	}
	// Merging an empty histogram is the identity.
	before := left.counts
	left.Merge(New())
	if left.counts != before {
		t.Fatal("empty merge changed buckets")
	}
}

func TestSlotRoundTripBounds(t *testing.T) {
	// Every power of two and its neighbors must land in a bucket whose
	// representative is within the documented relative error.
	for shift := uint(0); shift < 62; shift++ {
		for _, d := range []int64{-1, 0, 1} {
			v := int64(1)<<shift + d
			if v < 0 {
				continue
			}
			rep := valueAt(slot(v))
			tol := v/64 + 1
			if rep < v-tol || rep > v+tol {
				t.Fatalf("value %d → representative %d (tolerance %d)", v, rep, tol)
			}
		}
	}
	if got := slot(0); got != 0 {
		t.Fatalf("slot(0) = %d", got)
	}
	if slot(math.MaxInt64) >= nSlots {
		t.Fatal("MaxInt64 overflows the bucket array")
	}
}

func TestNegativeClampsToZero(t *testing.T) {
	h := New()
	h.Record(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative sample mishandled: count=%d min=%d", h.Count(), h.Min())
	}
}
