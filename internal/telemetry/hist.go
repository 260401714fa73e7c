// Package telemetry is the simulator's one instrument layer: streaming
// log-linear histograms with bounded quantile error, time-weighted gauges,
// the per-machine instrument Set (paper counters, latency histograms, gauges
// and per-lock contention profiles behind -metrics), tumbling simulated-time
// windows with a warmup/convergence detector, and window exporters that
// stream through a sink interface (the trace.Sink pattern) so arbitrarily
// long runs retain no per-request state.
//
// Every entry point is a method on a possibly-nil receiver (a disabled run
// carries a nil *Set or *Recorder and each update costs one pointer test),
// recording never allocates on the per-observation path, and the package
// does not import the simulation kernel: instruments are updated at the
// cycle a value changes and never schedule events or touch simulated state,
// so enabling them cannot perturb simulated results.
package telemetry

import (
	"math"
	"math/bits"
)

// The histogram is HDR-style log-linear: each power-of-two range [2^k, 2^(k+1))
// is split into 2^subBits linear sub-buckets, so a bucket's width is at most
// 1/2^subBits of its smallest member. Values below 2*subCount are exact.
const (
	subBits  = 5
	subCount = 1 << subBits // 32 linear sub-buckets per power-of-two range

	// numBuckets covers the full uint64 range: indices [0, subCount) hold
	// exact small values; group g >= 1 (values with bits.Len64 == g+subBits-1... )
	// holds subCount sub-buckets. Highest group is for the top bit (msb 63).
	numBuckets = subCount * 60 // 1920
)

// bucketIndex maps a value to its bucket. Values < 64 map exactly (index ==
// value); larger values land in the sub-bucket selected by the subBits bits
// after the leading one.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	msb := bits.Len64(v) - 1 // >= subBits
	return subCount*(msb-subBits+1) + int(v>>uint(msb-subBits)) - subCount
}

// bucketUpper returns the largest value mapping to bucket i — the value
// Quantile reports for ranks landing in that bucket.
func bucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	g := i / subCount
	sub := uint64(i % subCount)
	// Top group, top sub-bucket: (subCount+32)<<58 wraps to exactly 0, so the
	// -1 yields MaxUint64 — the full range is covered with no overflow bucket.
	return ((subCount + sub + 1) << uint(g-1)) - 1
}

// Hist is a log-linear (HDR-style) histogram over uint64 values with exact
// count/sum/min/max. Observe is a few integer ops and one array store — no
// allocation, no floating point.
//
// Quantile error bound: values below 64 are recorded exactly; above that, a
// bucket spanning [lo, hi] has width 2^(msb-5) <= lo/32, so Quantile
// overestimates the true rank value by strictly less than 1/32 (3.125%),
// and never past the observed max.
type Hist struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [numBuckets]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

// Count returns how many values were observed.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the total of all observed values.
func (h *Hist) Sum() uint64 { return h.sum }

// Min returns the smallest observed value (0 if none).
func (h *Hist) Min() uint64 { return h.min }

// Max returns the largest observed value (0 if none).
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the average observed value (0 if none).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile of the observed values
// (0 if none): the top of the bucket holding the ceil(q*count)-th smallest
// observation, clamped to [Min, Max]. Exact for values < 64; otherwise
// overestimates by less than 1/32 (3.125%) — see the type comment.
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= rank {
			v := bucketUpper(i)
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

// Reset zeroes the histogram in place, keeping its storage.
func (h *Hist) Reset() { *h = Hist{} }
