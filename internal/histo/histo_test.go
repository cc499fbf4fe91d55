package histo

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	if h.String() != "histo{empty}" {
		t.Fatalf("String %q", h.String())
	}
}

func TestSingleSample(t *testing.T) {
	var h Histogram
	h.Record(1000)
	if h.Count() != 1 || h.Sum() != 1000 || h.Min() != 1000 || h.Max() != 1000 {
		t.Fatalf("%+v", h)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) = %d (clamping to min/max failed)", q, got)
		}
	}
}

func TestZeroSample(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(0)
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("zeros mishandled")
	}
}

func TestQuantileWithinFactorOfTwo(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	samples := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Intn(1_000_000)) + 1
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		if got < exact/2 || got > exact*2 {
			t.Fatalf("Quantile(%v) = %d, exact %d (outside 2x)", q, got, exact)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		var h Histogram
		for _, v := range vals {
			h.Record(uint64(v))
		}
		prev := uint64(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileClampsArgs(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Record(50)
	if h.Quantile(-1) == 0 && h.Quantile(2) == 0 {
		t.Fatal("out-of-range q mishandled")
	}
	if h.Quantile(2) != h.Quantile(1) {
		t.Fatal("q>1 not clamped")
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := uint64(1); i <= 100; i++ {
		a.Record(i)
	}
	for i := uint64(1000); i <= 1100; i++ {
		b.Record(i)
	}
	a.Merge(&b)
	if a.Count() != 201 {
		t.Fatalf("count %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 1100 {
		t.Fatalf("min/max %d/%d", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // must be a no-op
	if a.Count() != 201 {
		t.Fatal("merging empty changed count")
	}
	empty.Merge(&a)
	if empty.Count() != 201 || empty.Min() != 1 {
		t.Fatal("merge into empty broken")
	}
}

func TestMergeMatchesCombinedRecording(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b, c Histogram
		for _, x := range xs {
			a.Record(uint64(x))
			c.Record(uint64(x))
		}
		for _, y := range ys {
			b.Record(uint64(y))
			c.Record(uint64(y))
		}
		a.Merge(&b)
		if a.Count() != c.Count() || a.Sum() != c.Sum() || a.Min() != c.Min() || a.Max() != c.Max() {
			return false
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if a.Quantile(q) != c.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordNMatchesRepeatedRecord: RecordN(v, n) leaves the histogram
// exactly as n calls of Record(v) do, on top of any earlier samples.
func TestRecordNMatchesRepeatedRecord(t *testing.T) {
	f := func(xs []uint16, v uint16, n uint8) bool {
		var a, b Histogram
		for _, x := range xs {
			a.Record(uint64(x))
			b.Record(uint64(x))
		}
		a.RecordN(uint64(v), uint64(n))
		for i := 0; i < int(n); i++ {
			b.Record(uint64(v))
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	var h Histogram
	h.Record(7)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestStringNonEmpty(t *testing.T) {
	var h Histogram
	for i := uint64(1); i < 100; i++ {
		h.Record(i * 37)
	}
	s := h.String()
	if s == "" || s == "histo{empty}" {
		t.Fatalf("String %q", s)
	}
}

func TestBucketMid(t *testing.T) {
	if bucketMid(0) != 0 {
		t.Fatal("bucket 0")
	}
	if bucketMid(1) != 1 {
		t.Fatalf("bucket 1 mid %d", bucketMid(1))
	}
	if bucketMid(11) != 1536 { // [1024, 2048) -> 1536
		t.Fatalf("bucket 11 mid %d", bucketMid(11))
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i))
	}
}
