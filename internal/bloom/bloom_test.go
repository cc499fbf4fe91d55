package bloom

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

var testParams = Params{Bits: 256, Hashes: 3}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Bits: 0, Hashes: 1},
		{Bits: 63, Hashes: 1},
		{Bits: 96, Hashes: 1},   // multiple of 32, not power of two
		{Bits: 1000, Hashes: 2}, // not power of two
		{Bits: 128, Hashes: 0},
		{Bits: 128, Hashes: 9}, // k bits share one word: capped at 8
		{Bits: -64, Hashes: 2},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("Validate(%+v) = nil", p)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFilter(%+v) did not panic", p)
				}
			}()
			NewFilter(p)
		}()
	}
	good := []Params{{Bits: 64, Hashes: 1}, {Bits: 1024, Hashes: 4}, {Bits: 64, Hashes: 8}, DefaultParams}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", p, err)
		}
		if NewFilter(p) == nil || NewAtomic(p) == nil {
			t.Errorf("valid params %+v rejected", p)
		}
	}
}

func TestParamsAccessors(t *testing.T) {
	p := Params{Bits: 128, Hashes: 2}
	if p.Words() != 2 {
		t.Fatalf("Words %d", p.Words())
	}
	if NewFilter(p).Params() != p || NewAtomic(p).Params() != p {
		t.Fatal("Params accessor mismatch")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f := NewFilter(testParams)
	for id := uint64(0); id < 500; id++ {
		f.Add(id * 2654435761)
	}
	for id := uint64(0); id < 500; id++ {
		if !f.MayContain(id * 2654435761) {
			t.Fatalf("false negative for %d", id)
		}
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	err := quick.Check(func(ids []uint64) bool {
		f := NewFilter(testParams)
		for _, id := range ids {
			f.Add(id)
		}
		for _, id := range ids {
			if !f.MayContain(id) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestClearAndEmpty(t *testing.T) {
	f := NewFilter(testParams)
	if !f.Empty() {
		t.Fatal("fresh filter not empty")
	}
	f.Add(7)
	if f.Empty() || f.PopCount() == 0 {
		t.Fatal("Add left filter empty")
	}
	f.Clear()
	if !f.Empty() || f.PopCount() != 0 {
		t.Fatal("Clear did not empty filter")
	}
}

func TestIntersects(t *testing.T) {
	a, b := NewFilter(testParams), NewFilter(testParams)
	a.Add(1)
	b.Add(2)
	// With 256 bits and 2 elements a collision is astronomically unlikely
	// for these fixed ids; assert the expected outcome deterministically.
	if a.Intersects(b) {
		t.Fatal("disjoint singletons intersect")
	}
	b.Add(1)
	if !a.Intersects(b) {
		t.Fatal("shared element not detected")
	}
}

func TestQuickIntersectsSharedElement(t *testing.T) {
	// Property: if the two filters share an element, Intersects must be true.
	err := quick.Check(func(xs, ys []uint64, shared uint64) bool {
		a, b := NewFilter(testParams), NewFilter(testParams)
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		a.Add(shared)
		b.Add(shared)
		return a.Intersects(b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	a := NewFilter(testParams)
	for i := uint64(0); i < 20; i++ {
		a.Add(i)
	}
	c := a.Clone()
	for i := uint64(0); i < 20; i++ {
		if !c.MayContain(i) {
			t.Fatal("clone lost element")
		}
	}
	c.Add(999)
	// Clone must be independent: a very unlikely to contain 999 unless
	// collision; instead verify words differ via PopCount monotonicity.
	if c.PopCount() < a.PopCount() {
		t.Fatal("clone popcount shrank")
	}
	d := NewFilter(testParams)
	d.CopyFrom(a)
	if d.PopCount() != a.PopCount() {
		t.Fatal("CopyFrom not exact")
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	p := Params{Bits: 1024, Hashes: 2}
	f := NewFilter(p)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		f.Add(rng.Uint64())
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// Theoretical rate for n=64, m=1024, k=2 is ~1.4%; allow generous slack.
	if rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestAtomicBasics(t *testing.T) {
	a := NewAtomic(testParams)
	a.Add(42)
	if !a.MayContain(42) {
		t.Fatal("atomic false negative")
	}
	g := NewFilter(testParams)
	g.Add(42)
	if !a.IntersectsFilter(g) {
		t.Fatal("atomic intersect missed shared element")
	}
	g2 := NewFilter(testParams)
	g2.Add(77)
	if a.IntersectsFilter(g2) {
		t.Fatal("atomic intersect false on disjoint singletons")
	}
	a.Clear()
	if a.MayContain(42) {
		t.Fatal("Clear did not remove element")
	}
}

func TestAtomicSnapshot(t *testing.T) {
	a := NewAtomic(testParams)
	for i := uint64(0); i < 30; i++ {
		a.Add(i)
	}
	snap := NewFilter(testParams)
	a.Snapshot(snap)
	for i := uint64(0); i < 30; i++ {
		if !snap.MayContain(i) {
			t.Fatal("snapshot lost element")
		}
	}
	if a.Summary() != snap.sum || a.SummaryIntersects(^snap.sum) {
		t.Fatalf("Atomic summary %#x is not the fold %#x", a.Summary(), snap.sum)
	}
}

// TestAtomicConcurrentAddIntersect exercises the invalidation-server pattern:
// one goroutine adds read-set bits while others intersect. The invariant is
// that once Add(id) returns, every subsequent intersect against a filter
// containing id must succeed.
func TestAtomicConcurrentAddIntersect(t *testing.T) {
	a := NewAtomic(testParams)
	const n = 200
	var wg sync.WaitGroup
	added := make(chan uint64, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			a.Add(i)
			added <- i
		}
		close(added)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := NewFilter(testParams)
			for id := range added {
				g.Clear()
				g.Add(id)
				if !a.IntersectsFilter(g) {
					t.Errorf("intersect missed id %d published before", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sweepParams spans the geometries the layout tests sweep: every legal k over
// a one-word filter, a two-word one, the default width and a wide one.
func sweepParams() []Params {
	var ps []Params
	for _, b := range []int{64, 128, 1024, 4096} {
		for k := 1; k <= 8; k++ {
			ps = append(ps, Params{Bits: b, Hashes: k})
		}
	}
	return ps
}

// checkOneWordAdd asserts the layout contract for one id on empty filters:
// Add sets exactly Hashes bits in exactly one word, Filter and Atomic set the
// same bits, the Filter summary equals the fold, the id is found, the
// occupied-word intersection agrees with the full one, and an Atomic that
// was cleared takes the id again (Add's test-before-OR must see the zeros).
func checkOneWordAdd(t testing.TB, p Params, id uint64) {
	t.Helper()
	f, a, snap := NewFilter(p), NewAtomic(p), NewFilter(p)
	f.Add(id)
	a.Add(id)
	a.Snapshot(snap)
	dirty := 0
	for i, w := range f.words {
		if w != 0 {
			dirty++
			if n := bits.OnesCount64(w); n != p.Hashes {
				t.Fatalf("%+v id %#x: %d bits set in word %d, want %d", p, id, n, i, p.Hashes)
			}
		}
		if snap.words[i] != w {
			t.Fatalf("%+v id %#x: word %d is %#x in Atomic, %#x in Filter", p, id, i, snap.words[i], w)
		}
	}
	if dirty != 1 {
		t.Fatalf("%+v id %#x: %d words dirtied, want 1", p, id, dirty)
	}
	if fold := foldWords(f.words); f.sum != fold || snap.sum != fold {
		t.Fatalf("%+v id %#x: summaries %#x/%#x, fold %#x", p, id, f.sum, snap.sum, fold)
	}
	if !f.MayContain(id) || !a.MayContain(id) || !a.IntersectsFilter(f) {
		t.Fatalf("%+v id %#x: false negative", p, id)
	}
	a.Clear()
	a.Snapshot(snap)
	if !snap.Empty() || a.MayContain(id) || a.IntersectsFilter(f) != wordsIntersect(snap.words, f.words) {
		t.Fatalf("%+v id %#x: Clear left bits behind", p, id)
	}
	a.Add(id)
	a.Snapshot(snap)
	if !a.MayContain(id) || snap.sum != f.sum || a.IntersectsFilter(f) != wordsIntersect(snap.words, f.words) {
		t.Fatalf("%+v id %#x: Add after Clear lost the id", p, id)
	}
}

func TestQuickAddSetsKBitsInOneWord(t *testing.T) {
	for _, p := range sweepParams() {
		if err := quick.Check(func(id uint64) bool {
			checkOneWordAdd(t, p, id)
			return true
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocateDeterministicAndSpread: locate is a pure function of (Params,
// id), stays inside the filter, and reaches every word — an id stream that
// piled into a few words would raise the false-conflict rate silently.
func TestLocateDeterministicAndSpread(t *testing.T) {
	p := Params{Bits: 1024, Hashes: 4}
	rng := rand.New(rand.NewSource(5))
	hits := make([]int, p.Words())
	const n = 16000
	for i := 0; i < n; i++ {
		id := rng.Uint64()
		w, mask := p.locate(KeyOf(id))
		if w2, mask2 := p.locate(KeyOf(id)); w2 != w || mask2 != mask {
			t.Fatal("locate not deterministic")
		}
		if w < 0 || w >= p.Words() || bits.OnesCount64(mask) != p.Hashes {
			t.Fatalf("locate(%#x) = word %d mask %#x", id, w, mask)
		}
		hits[w]++
	}
	for w, h := range hits {
		if mean := n / p.Words(); h < mean/2 || h > 2*mean {
			t.Fatalf("word %d drew %d of %d ids (mean %d)", w, h, n, mean)
		}
	}
}

// TestLocateGolden pins the bit positions: (word, mask) for fixed ids over a
// one-word, the default and a wide eight-hash geometry, recorded before ids
// were hashed once into a Key, and each id's H1 = splitmix64(id), which core
// masks to pick a Var's commit stream. A change here changes every signature
// and shard placement, and with them bloom.fp_ratio_r64_w2.
func TestLocateGolden(t *testing.T) {
	for id, h1 := range map[uint64]uint64{
		0x0:                0xe220a8397b1dcdaf,
		0x1:                0x910a2dec89025cc1,
		0x2:                0x975835de1c9756ce,
		0x3:                0x1d0b14e4db018fed,
		0x3e8:              0x3c1eba8b4dccc148,
		0x100000000:        0xc42c5a1aa3820138,
		0x9e3779b97f4a7c15: 0x6e789e6aa1b965f4,
		0xffffffffffffffff: 0xe4d971771b652c20,
	} {
		if k := KeyOf(id); k.H1 != h1 || k.H2 != KeyOf(h1).H1|1 {
			t.Errorf("KeyOf(%#x) = %#x, want H1 %#x and H2 splitmix64(H1)|1", id, k, h1)
		}
	}
	for _, g := range []struct {
		p    Params
		id   uint64
		word int
		mask uint64
	}{
		{Params{Bits: 64, Hashes: 1}, 0x0, 0, 0x800000000000},
		{Params{Bits: 64, Hashes: 1}, 0x1, 0, 0x2},
		{Params{Bits: 64, Hashes: 1}, 0x2, 0, 0x4000},
		{Params{Bits: 64, Hashes: 1}, 0x3, 0, 0x200000000000},
		{Params{Bits: 64, Hashes: 1}, 0x3e8, 0, 0x100},
		{Params{Bits: 64, Hashes: 1}, 0x100000000, 0, 0x100000000000000},
		{Params{Bits: 64, Hashes: 1}, 0x9e3779b97f4a7c15, 0, 0x10000000000000},
		{Params{Bits: 64, Hashes: 1}, 0xffffffffffffffff, 0, 0x100000000},
		{Params{Bits: 1024, Hashes: 2}, 0x0, 6, 0x800040000000},
		{Params{Bits: 1024, Hashes: 2}, 0x1, 3, 0x100000002},
		{Params{Bits: 1024, Hashes: 2}, 0x2, 11, 0x4008},
		{Params{Bits: 1024, Hashes: 2}, 0x3, 15, 0x200000000010},
		{Params{Bits: 1024, Hashes: 2}, 0x3e8, 5, 0x180},
		{Params{Bits: 1024, Hashes: 2}, 0x100000000, 4, 0x100000000000080},
		{Params{Bits: 1024, Hashes: 2}, 0x9e3779b97f4a7c15, 7, 0x30000000000000},
		{Params{Bits: 1024, Hashes: 2}, 0xffffffffffffffff, 0, 0x100800000},
		{Params{Bits: 4096, Hashes: 8}, 0x0, 54, 0x1100880044002200},
		{Params{Bits: 4096, Hashes: 8}, 0x1, 51, 0xa800000154000002},
		{Params{Bits: 4096, Hashes: 8}, 0x2, 27, 0x10020040080500a},
		{Params{Bits: 4096, Hashes: 8}, 0x3, 63, 0x84200108004210},
		{Params{Bits: 4096, Hashes: 8}, 0x3e8, 5, 0x1fe},
		{Params{Bits: 4096, Hashes: 8}, 0x100000000, 4, 0x110002200440088},
		{Params{Bits: 4096, Hashes: 8}, 0x9e3779b97f4a7c15, 23, 0xff0000000000000},
		{Params{Bits: 4096, Hashes: 8}, 0xffffffffffffffff, 48, 0x1008040300804020},
	} {
		if w, mask := g.p.locate(KeyOf(g.id)); w != g.word || mask != g.mask {
			t.Errorf("%+v id %#x: (word, mask) = (%d, %#x), want (%d, %#x)", g.p, g.id, w, mask, g.word, g.mask)
		}
		f := NewFilter(g.p)
		f.Add(g.id)
		if f.words[g.word] != g.mask || f.PopCount() != g.p.Hashes {
			t.Errorf("%+v id %#x: Add set word %d to %#x", g.p, g.id, g.word, f.words[g.word])
		}
	}
}

// TestReadPathDoesNotAllocate: the per-read and per-begin operations run
// inside every transaction; none may allocate or grow a slice.
func TestReadPathDoesNotAllocate(t *testing.T) {
	f, a := NewFilter(DefaultParams), NewAtomic(DefaultParams)
	id := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		id++
		f.Add(id)
		a.Add(id)
		if id%64 == 0 {
			a.Clear()
		}
	}); n != 0 {
		t.Fatalf("Filter.Add + Atomic.Add + Atomic.Clear allocate %v times per run", n)
	}
}

func BenchmarkFilterAdd(b *testing.B) {
	f := NewFilter(DefaultParams)
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkAtomicAdd(b *testing.B) {
	f := NewAtomic(DefaultParams)
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkIntersect(b *testing.B) {
	a := NewAtomic(DefaultParams)
	g := NewFilter(DefaultParams)
	for i := uint64(0); i < 32; i++ {
		a.Add(i)
		g.Add(i + 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IntersectsFilter(g)
	}
}

// foldWords is the reference summary: the OR of all filter words folded onto
// 64 bits. The tests below compare the maintained summaries against it so
// they do not depend on (or trust) the incremental bookkeeping under test.
func foldWords(words []uint64) uint64 {
	var s uint64
	for _, w := range words {
		s |= w
	}
	return s
}

// wordsIntersect is the reference full intersection, bypassing the summary
// fast path inside Filter.Intersects.
func wordsIntersect(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// TestSummaryIsExactFoldOnFilter: through Add/Clear/CopyFrom/UnionWith/Clone
// the single-owner filter's summary stays exactly the column-fold of its
// words, so Empty is exact too: a filter nothing was added to since its last
// Clear has no bit set anywhere (core's writeSet.reset skips the Clear of a
// write set with no entries on the strength of that).
func TestSummaryIsExactFoldOnFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewFilter(testParams)
	g := NewFilter(testParams)
	for step := 0; step < 2000; step++ {
		switch rng.Intn(10) {
		case 0:
			f.Clear()
		case 1:
			g.Clear()
		case 2:
			f.UnionWith(g)
		case 3:
			g.CopyFrom(f)
		case 4:
			f = g.Clone()
		default:
			f.Add(rng.Uint64())
			g.Add(rng.Uint64())
		}
		for name, x := range map[string]*Filter{"f": f, "g": g} {
			if x.sum != foldWords(x.words) {
				t.Fatalf("step %d: %s summary %x != fold %x", step, name, x.sum, foldWords(x.words))
			}
			if x.Empty() != (x.PopCount() == 0) {
				t.Fatalf("step %d: %s Empty()=%v with %d bits set", step, name, x.Empty(), x.PopCount())
			}
		}
	}
}

// TestSummaryNeverFalseNegative is the two-level safety property: for random
// add-sets, a Filter summary miss implies a full-intersection miss (the
// converse — summary hit with a full miss — is allowed and expected; the
// summary is conservative), and the Atomic read filter's occupied-word
// intersection decides exactly as the full one does.
func TestSummaryNeverFalseNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		f := NewFilter(testParams)
		a := NewAtomic(testParams)
		w := NewFilter(testParams) // the "write filter" both are tested against
		for i, n := 0, rng.Intn(20); i < n; i++ {
			id := rng.Uint64()
			f.Add(id)
			a.Add(id)
		}
		for i, n := 0, rng.Intn(20); i < n; i++ {
			w.Add(rng.Uint64())
		}
		snap := NewFilter(testParams)
		a.Snapshot(snap)
		if f.sum&w.sum == 0 && wordsIntersect(f.words, w.words) {
			t.Fatalf("trial %d: Filter summary miss but words intersect", trial)
		}
		if a.IntersectsFilter(w) != wordsIntersect(snap.words, w.words) {
			t.Fatalf("trial %d: Atomic occupied-word intersect disagrees with the full one", trial)
		}
		if snap.sum != foldWords(snap.words) {
			// Quiescent snapshot: summary must equal the fold exactly.
			t.Fatalf("trial %d: snapshot summary %x != fold %x", trial, snap.sum, foldWords(snap.words))
		}
		// Intersects' summary fast path must agree with the word-level truth.
		if f.Intersects(w) != wordsIntersect(f.words, w.words) {
			t.Fatalf("trial %d: Intersects disagrees with word-level intersection", trial)
		}
	}
}

// TestAtomicIntersectsUnderConcurrentAdds: while the owner keeps adding, an
// IntersectsFilter against a filter holding an id already added always hits —
// the scan's level-1 reject, which loads only the words the write filter
// occupies, never misses a published read whatever the owner is adding
// elsewhere. The owner never Clears here: the STM owner only clears between
// transactions, when no scan against the current incarnation is in flight.
func TestAtomicIntersectsUnderConcurrentAdds(t *testing.T) {
	a := NewAtomic(testParams)
	ids := make([]uint64, 1<<14)
	rng := rand.New(rand.NewSource(3))
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	var added atomic.Int64 // ids[:added] are in a
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, id := range ids {
			a.Add(id)
			added.Store(int64(i + 1))
		}
	}()
	g := NewFilter(testParams)
	for trial := 0; added.Load() < int64(len(ids)); trial++ {
		n := added.Load()
		if n == 0 {
			continue
		}
		id := ids[rng.Int63n(n)]
		g.Clear()
		g.Add(id)
		if !a.IntersectsFilter(g) {
			t.Fatalf("trial %d: intersect missed id %#x added before it began", trial, id)
		}
	}
	wg.Wait()

	// Clear is owner-only and quiescent; after it no word bit is left.
	a.Clear()
	snap := NewFilter(testParams)
	a.Snapshot(snap)
	if !snap.Empty() || a.IntersectsFilter(g) {
		t.Fatal("Clear left word bits behind")
	}
}
