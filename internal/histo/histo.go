// Package histo provides a small log-scaled histogram for latency
// measurements. The benchmark harness records per-transaction latencies with
// it to expose the *distribution* behind the throughput numbers: remote
// commit trades a longer per-commit round trip for immunity to shared-lock
// convoys, which shows up as a tighter tail, not a better median.
//
// Buckets are powers of two (one per bit length), so Record is two
// instructions and quantiles are exact to within a factor of two — ample for
// comparing engines orders of magnitude apart.
package histo

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// numBuckets covers the full uint64 range: bucket i holds values with bit
// length i (value 0 goes to bucket 0).
const numBuckets = 65

// Histogram accumulates non-negative integer samples (typically
// nanoseconds). The zero value is ready to use. Not safe for concurrent
// use; give each worker its own and Merge.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds n samples of value v.
func (h *Histogram) RecordN(v, n uint64) {
	if n == 0 {
		return
	}
	h.buckets[bits.Len64(v)] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an estimate of the q-quantile (0 < q <= 1): the
// geometric midpoint of the bucket containing the nearest-rank sample,
// clamped to [Min, Max]. The rank is ceil(q*count) — the standard
// nearest-rank definition — so q=0.5 over three samples selects the middle
// one, not the first (truncation used to bias every mid-bucket quantile one
// sample low). The product is taken in integers, with q rounded to parts per
// billion: in floating point 0.28*25 is 7.000000000000001, whose ceiling
// would rank 8 instead of 7. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := ceilRank(uint64(math.Round(q*rankScale)), h.count)
	if target == 0 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			est := bucketMid(i)
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// rankScale is the resolution of Quantile's q: parts per billion.
const rankScale = 1e9

// ceilRank returns ceil(qn*count/rankScale) exactly, for qn <= rankScale: the
// product is 128-bit, and its high word stays below rankScale, so the
// division cannot overflow.
func ceilRank(qn, count uint64) uint64 {
	hi, lo := bits.Mul64(qn, count)
	lo, carry := bits.Add64(lo, rankScale-1, 0)
	rank, _ := bits.Div64(hi+carry, lo, rankScale)
	return rank
}

// bucketMid returns the geometric midpoint of bucket i: values in bucket i
// have bit length i, i.e. lie in [2^(i-1), 2^i).
func bucketMid(i int) uint64 {
	if i == 0 {
		return 0
	}
	lo := uint64(1) << (i - 1)
	return lo + lo/2
}

// Bucket is one exported histogram bin: Count samples whose values lie in
// [Lo, Hi]. The bounds are the power-of-two bucket edges.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// NonEmptyBuckets returns the occupied bins in increasing value order — the
// machine-readable form benchmark JSON reports embed (e.g. the group-commit
// batch-size distribution).
func (h *Histogram) NonEmptyBuckets() []Bucket {
	var out []Bucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		var lo, hi uint64
		if i > 0 {
			lo = uint64(1) << (i - 1)
			hi = lo<<1 - 1
		}
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// CountAbove returns the number of samples whose bucket lies entirely above
// v — every sample whose bit length exceeds v's. Samples sharing v's bucket
// are excluded (they may be at or below v), so the result is a conservative
// lower bound on samples strictly greater than v, off by at most one
// power-of-two bucket. The SLO burn-rate evaluation uses it as the
// "requests over objective" numerator.
func (h *Histogram) CountAbove(v uint64) uint64 {
	var n uint64
	for i := bits.Len64(v) + 1; i < numBuckets; i++ {
		n += h.buckets[i]
	}
	return n
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histo{empty}"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "histo{n=%d mean=%.0f p50=%d p90=%d p99=%d max=%d}",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.max)
	return sb.String()
}
