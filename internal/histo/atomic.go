package histo

import (
	"math/bits"
	"sync/atomic"
)

// Atomic is the concurrent-snapshot variant of Histogram: the same
// power-of-two bucket layout, recorded with single-writer atomics so a
// reporting goroutine may snapshot it while the owner is still recording.
// The discipline mirrors the rest of the observability substrate (obs
// attribution counters, core Stats): exactly one goroutine calls Record,
// any number call Snapshot, and every mutable word is accessed atomically —
// plain atomic add/store, no CAS loops needed.
//
// A Snapshot taken mid-record is not a single instant (each word is read
// individually), but every word is monotone under the single writer, so the
// result is always a state the histogram passed through field-by-field; at
// quiescence it is exact.
type Atomic struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Record adds one sample. Only the owning goroutine may call it.
//
//stm:hotpath
func (h *Atomic) Record(v uint64) {
	atomic.AddUint64(&h.buckets[bits.Len64(v)], 1)
	atomic.AddUint64(&h.sum, v)
	// Single-writer: load-compare-store replaces a CAS loop. count is bumped
	// last so a snapshot that already sees the new count also sees the
	// sample's bucket and sum.
	if c := atomic.LoadUint64(&h.count); c == 0 || v < atomic.LoadUint64(&h.min) {
		atomic.StoreUint64(&h.min, v)
	}
	if v > atomic.LoadUint64(&h.max) {
		atomic.StoreUint64(&h.max, v)
	}
	atomic.AddUint64(&h.count, 1)
}

// Count returns the number of recorded samples.
func (h *Atomic) Count() uint64 { return atomic.LoadUint64(&h.count) }

// Snapshot returns the current state as a plain Histogram, safe to call
// while the owner records.
func (h *Atomic) Snapshot() Histogram {
	var out Histogram
	out.count = atomic.LoadUint64(&h.count)
	out.sum = atomic.LoadUint64(&h.sum)
	out.min = atomic.LoadUint64(&h.min)
	out.max = atomic.LoadUint64(&h.max)
	for i := range h.buckets {
		out.buckets[i] = atomic.LoadUint64(&h.buckets[i])
	}
	return out
}

// Delta returns the window between two snapshots of the same histogram:
// a Histogram holding only the samples recorded after prev was taken.
// Cumulative state cannot recover the window's exact min/max, so they are
// set to the tightest power-of-two bounds the occupied buckets imply —
// which is also what keeps Quantile's clamp honest on the window.
func Delta(cur, prev *Histogram) Histogram {
	var out Histogram
	first, last := -1, -1
	for i := range cur.buckets {
		if cur.buckets[i] <= prev.buckets[i] {
			continue
		}
		n := cur.buckets[i] - prev.buckets[i]
		out.buckets[i] = n
		out.count += n
		if first < 0 {
			first = i
		}
		last = i
	}
	if out.count == 0 {
		return out
	}
	if cur.sum > prev.sum {
		out.sum = cur.sum - prev.sum
	}
	if first > 0 {
		out.min = uint64(1) << (first - 1)
	}
	if last > 0 {
		out.max = uint64(1)<<last - 1
	}
	return out
}

// Exact is Atomic for samples that are small integers with a known bound,
// such as a batch size or a queue depth: one counter per value 0..max, so a
// sample costs one atomic add where Atomic's costs three (bucket, sum, count)
// and two loads. Snapshot derives the buckets, count, sum, min and max from
// the counters and returns exactly the Histogram an Atomic fed the same
// samples would. A sample above max is recorded in an Atomic instead, so no
// value is lost. The discipline is Atomic's: one goroutine records, any number
// snapshot, and a snapshot taken mid-record is a state the histogram passed
// through counter by counter.
type Exact struct {
	counts []atomic.Uint64 // counts[v]: samples equal to v
	over   Atomic          // samples above len(counts)-1
}

// NewExact returns an Exact counting each value 0..max.
func NewExact(max int) Exact { return Exact{counts: make([]atomic.Uint64, max+1)} }

// Record adds one sample. Only the owning goroutine may call it.
//
//stm:hotpath
func (h *Exact) Record(v uint64) {
	if v < uint64(len(h.counts)) {
		h.counts[v].Add(1)
		return
	}
	h.over.Record(v)
}

// Snapshot returns the current state as a plain Histogram, safe to call
// while the owner records. Count and Sum of the result are the sample count
// and total; every counted value lies below the overflow's samples, so the
// smallest counted value is the minimum and the overflow's maximum, if any,
// the maximum.
func (h *Exact) Snapshot() Histogram {
	out := h.over.Snapshot()
	var n uint64
	for v := range h.counts {
		c := h.counts[v].Load()
		if c == 0 {
			continue
		}
		if n == 0 {
			out.min = uint64(v)
		}
		if out.count == 0 {
			out.max = uint64(v)
		}
		n += c
		out.buckets[bits.Len64(uint64(v))] += c
		out.sum += uint64(v) * c
	}
	out.count += n
	return out
}
