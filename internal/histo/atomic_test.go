package histo

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestQuantileBucketBoundaries pins the nearest-rank semantics at exact
// bucket edges: with samples on both sides of a power-of-two boundary, the
// quantile must land in the bucket holding the rank-ceil(q*n) sample.
func TestQuantileBucketBoundaries(t *testing.T) {
	var h Histogram
	// 4 samples in bucket [4,8), 4 in bucket [8,16).
	for _, v := range []uint64{4, 5, 6, 7, 8, 9, 10, 15} {
		h.Record(v)
	}
	cases := []struct {
		q      float64
		bucket int // expected bits.Len64 of the result
	}{
		{0.5, 3},   // rank ceil(0.5*8)=4 -> value 7 -> bucket 3
		{0.51, 4},  // rank 5 -> value 8 -> bucket 4
		{0.125, 3}, // rank 1 -> value 4
		{1.0, 4},   // rank 8 -> value 15
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if bits.Len64(got) != c.bucket {
			t.Errorf("Quantile(%v) = %d, want bucket %d (got bucket %d)",
				c.q, got, c.bucket, bits.Len64(got))
		}
	}
	// Three-sample median: nearest-rank must pick the middle sample's
	// bucket, not the first (the old truncating rank selected rank 1).
	var m Histogram
	for _, v := range []uint64{2, 100, 5000} {
		m.Record(v)
	}
	if got := m.Quantile(0.5); bits.Len64(got) != bits.Len64(100) {
		t.Errorf("median of {2,100,5000} = %d, want within bucket of 100", got)
	}
}

// TestQuantileOracle is the sorted-slice property test: for random sample
// sets and random q, Quantile must land in the same power-of-two bucket as
// the exact nearest-rank value from a sorted copy. The fixed case is q = 0.28
// over the samples 1..25, whose rank is 7 (value 7, bucket 3); a rank taken
// as the ceiling of the floating-point product 7.000000000000001 is 8 (value
// 8, bucket 4).
func TestQuantileOracle(t *testing.T) {
	f := func(vals []uint32, qRaw uint16) bool {
		if len(vals) == 0 {
			return true
		}
		q := float64(qRaw%1000+1) / 1000 // (0, 1]
		var h Histogram
		sorted := make([]uint64, len(vals))
		for i, v := range vals {
			h.Record(uint64(v))
			sorted[i] = uint64(v)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		rank := int(float64(len(sorted))*q + 0.9999999)
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		exact := sorted[rank-1]
		got := h.Quantile(q)
		// Same bucket as the oracle (clamping keeps it there: min/max of a
		// histogram whose clamp fires live in the selected bucket).
		return bits.Len64(got) == bits.Len64(exact)
	}
	oneTo25 := make([]uint32, 25)
	for i := range oneTo25 {
		oneTo25[i] = uint32(i + 1)
	}
	if !f(oneTo25, 279) {
		t.Fatal("Quantile(0.28) over 1..25 left the bucket of rank 7")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMinMaxOracle: Merge across histograms with arbitrary, differing
// min/max must preserve the global min and max exactly — checked against a
// sorted-slice oracle over the combined samples, in both merge directions.
func TestMergeMinMaxOracle(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		var a, b Histogram
		all := make([]uint64, 0, len(xs)+len(ys))
		for _, x := range xs {
			a.Record(uint64(x))
			all = append(all, uint64(x))
		}
		for _, y := range ys {
			b.Record(uint64(y))
			all = append(all, uint64(y))
		}
		ab, ba := a, b
		ab.Merge(&b)
		ba.Merge(&a)
		if len(all) == 0 {
			return ab.Count() == 0 && ba.Count() == 0
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		wantMin, wantMax := all[0], all[len(all)-1]
		return ab.Min() == wantMin && ab.Max() == wantMax &&
			ba.Min() == wantMin && ba.Max() == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicMatchesPlain(t *testing.T) {
	var a Atomic
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(1 << 20))
		a.Record(v)
		h.Record(v)
	}
	snap := a.Snapshot()
	if snap.Count() != h.Count() || snap.Sum() != h.Sum() ||
		snap.Min() != h.Min() || snap.Max() != h.Max() {
		t.Fatalf("snapshot %v != plain %v", snap.String(), h.String())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if snap.Quantile(q) != h.Quantile(q) {
			t.Fatalf("Quantile(%v): snapshot %d != plain %d", q, snap.Quantile(q), h.Quantile(q))
		}
	}
	if a.Count() != h.Count() {
		t.Fatal("Count mismatch")
	}
}

// TestAtomicConcurrentSnapshot runs one writer against many snapshotters
// under the race detector; every snapshot must be internally sane (bucket
// sum covers count as of the count read, quantiles within [min, max]).
func TestAtomicConcurrentSnapshot(t *testing.T) {
	var a Atomic
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200000; i++ {
			a.Record(uint64(rng.Intn(1<<16)) + 1)
		}
		close(done)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := a.Snapshot()
				if s.Count() == 0 {
					continue
				}
				p99 := s.Quantile(0.99)
				if p99 < s.Min() || p99 > s.Max() {
					t.Errorf("p99 %d outside [%d, %d]", p99, s.Min(), s.Max())
					return
				}
			}
		}()
	}
	wg.Wait()
	final := a.Snapshot()
	if final.Count() != 200000 {
		t.Fatalf("final count %d", final.Count())
	}
}

func TestDelta(t *testing.T) {
	var a Atomic
	for _, v := range []uint64{10, 20, 30} {
		a.Record(v)
	}
	prev := a.Snapshot()
	for _, v := range []uint64{100, 200, 3000} {
		a.Record(v)
	}
	cur := a.Snapshot()
	d := Delta(&cur, &prev)
	if d.Count() != 3 {
		t.Fatalf("delta count %d", d.Count())
	}
	if d.Sum() != 3300 {
		t.Fatalf("delta sum %d", d.Sum())
	}
	// Window min/max are bucket bounds: 100 is in [64,128), 3000 in [2048,4096).
	if d.Min() != 64 || d.Max() != 4095 {
		t.Fatalf("delta min/max %d/%d", d.Min(), d.Max())
	}
	if p := d.Quantile(0.5); p < 64 || p > 255 {
		t.Fatalf("windowed median %d outside [64,255]", p)
	}
	// Empty window.
	e := Delta(&cur, &cur)
	if e.Count() != 0 || e.Quantile(0.99) != 0 {
		t.Fatal("empty delta not empty")
	}
	// Delta from the zero snapshot reproduces counts and sum.
	var zero Histogram
	full := Delta(&cur, &zero)
	if full.Count() != 6 || full.Sum() != cur.Sum() {
		t.Fatalf("full delta %v", full.String())
	}
}

func BenchmarkAtomicRecord(b *testing.B) {
	var h Atomic
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i))
	}
}

// TestExactMatchesAtomic is the property test behind Exact's contract: for
// any sample sequence, values above max included, its Snapshot is the very
// Histogram an Atomic fed the same samples returns — buckets, count, sum,
// min and max.
func TestExactMatchesAtomic(t *testing.T) {
	f := func(vals []uint16, maxRaw uint8) bool {
		max := int(maxRaw % 64)
		e := NewExact(max)
		var a Atomic
		for _, v := range vals {
			// Most samples within 0..max+8, some far above it.
			x := uint64(v % uint16(max+9))
			if v%16 == 0 {
				x = uint64(v) << 20
			}
			e.Record(x)
			a.Record(x)
		}
		return reflect.DeepEqual(e.Snapshot(), a.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	var empty Atomic
	if e := NewExact(4); e.Snapshot() != empty.Snapshot() {
		t.Fatal("empty Exact's snapshot differs from an empty Atomic's")
	}
}

// TestExactConcurrentSnapshot: snapshots taken while the owner records see
// monotone counts, and the final one is exact.
func TestExactConcurrentSnapshot(t *testing.T) {
	e := NewExact(8)
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			e.Record(uint64(i % 11))
		}
	}()
	var last uint64
	for i := 0; i < 200; i++ {
		s := e.Snapshot()
		if s.Count() < last {
			t.Fatalf("count went back from %d to %d", last, s.Count())
		}
		last = s.Count()
	}
	wg.Wait()
	s := e.Snapshot()
	if s.Count() != n || s.Min() != 0 || s.Max() != 10 {
		t.Fatalf("final snapshot n=%d min=%d max=%d, want %d/0/10", s.Count(), s.Min(), s.Max(), n)
	}
}
