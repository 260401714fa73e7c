package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and within the documented 1/32 relative error.
	vals := []uint64{0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 1000, 12345,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < value", v, up)
		}
		if v >= 64 {
			// Relative overestimate strictly below 1/32 (exact integer
			// check: 32*(up-v) < v, avoiding float rounding at 2^63).
			if d := up - v; d*32 >= v {
				t.Fatalf("value %d: upper %d overestimates by >= 1/32", v, up)
			}
		} else if up != v {
			t.Fatalf("value %d below 64 must be exact, got upper %d", v, up)
		}
	}
	// Bucket indices are monotone in the value.
	prev := -1
	for _, v := range []uint64{0, 1, 5, 31, 32, 60, 64, 90, 128, 1000, 1 << 30, math.MaxUint64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = i
	}
}

func TestHistEdgeCases(t *testing.T) {
	var h Hist
	// Empty histogram: everything zero.
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatalf("empty hist not all-zero: mean=%v q50=%d", h.Mean(), h.Quantile(0.5))
	}
	// v=0 and v=MaxUint64 both record without panic and bound the quantiles.
	h.Observe(0)
	h.Observe(math.MaxUint64)
	if h.Min() != 0 || h.Max() != math.MaxUint64 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("q50 of {0, max} = %d, want 0", got)
	}
	if got := h.Quantile(0.999); got != math.MaxUint64 {
		t.Fatalf("q999 of {0, max} = %d, want MaxUint64", got)
	}
	if got := h.Quantile(-1); got != 0 {
		t.Fatalf("q<=0 must return min, got %d", got)
	}
	if got := h.Quantile(2); got != math.MaxUint64 {
		t.Fatalf("q>=1 must return max, got %d", got)
	}
}

func TestHistQuantileErrorBound(t *testing.T) {
	// Against a sorted reference: the reported quantile must be >= the true
	// value and within 3.125% relative error.
	rng := rand.New(rand.NewSource(7))
	var h Hist
	var ref []uint64
	for i := 0; i < 20000; i++ {
		v := uint64(rng.ExpFloat64() * 5000)
		h.Observe(v)
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(len(ref)))) - 1
		truth := ref[rank]
		got := h.Quantile(q)
		if got < truth {
			t.Fatalf("q%.3f = %d below true %d", q, got, truth)
		}
		if truth >= 64 && float64(got-truth) >= float64(truth)/32 {
			t.Fatalf("q%.3f = %d overestimates true %d by >= 1/32", q, got, truth)
		}
	}
	// Quantiles are monotone in q.
	if !(h.Quantile(0.5) <= h.Quantile(0.99) && h.Quantile(0.99) <= h.Quantile(0.999)) {
		t.Fatalf("quantiles not monotone: %d %d %d", h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999))
	}
}

func TestHistObserveAllocFree(t *testing.T) {
	var h Hist
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	}); n != 0 {
		t.Fatalf("Observe allocates %v/op", n)
	}
}
