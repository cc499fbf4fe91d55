package core

import (
	"sync"
	"testing"
	"unsafe"

	"github.com/ssrg-vt/rinval/internal/padded"
)

// TestActiveSetBasics exercises set/clear/has across word boundaries.
func TestActiveSetBasics(t *testing.T) {
	a := newActiveSet(130) // three words
	if len(a.words) != 3 {
		t.Fatalf("words = %d, want 3", len(a.words))
	}
	for _, i := range []int{0, 1, 63, 64, 127, 128, 129} {
		if a.has(i) {
			t.Fatalf("fresh bitmap has bit %d", i)
		}
		a.set(i)
		if !a.has(i) {
			t.Fatalf("set(%d) not visible", i)
		}
	}
	a.clear(64)
	if a.has(64) || !a.has(63) || !a.has(127) {
		t.Fatal("clear(64) affected the wrong bits")
	}
	// nextSlot peels bits in ascending order within a word.
	b := a.words[0].Load()
	if i := nextSlot(0, &b); i != 0 {
		t.Fatalf("first bit = %d, want 0", i)
	}
	if i := nextSlot(0, &b); i != 1 {
		t.Fatalf("second bit = %d, want 1", i)
	}
	if i := nextSlot(0, &b); i != 63 {
		t.Fatalf("third bit = %d, want 63", i)
	}
	if b != 0 {
		t.Fatalf("word not exhausted: %x", b)
	}
}

// TestActiveSetWordPadding: the bitmap words are padded cells, so adjacent
// words (each the begin/deactivate write traffic of 64 slots) never share a
// cache line. Mirrors the slot layout tests for the new shared structure.
func TestActiveSetWordPadding(t *testing.T) {
	a := newActiveSet(128)
	p0 := uintptr(unsafe.Pointer(&a.words[0]))
	p1 := uintptr(unsafe.Pointer(&a.words[1]))
	if d := p1 - p0; d < padded.CacheLineSize || d%padded.CacheLineSize != 0 {
		t.Fatalf("adjacent bitmap words %d bytes apart, want a positive cache-line multiple", d)
	}
	if sz := unsafe.Sizeof(a.words[0]); sz%padded.CacheLineSize != 0 {
		t.Fatalf("bitmap word cell is %d bytes, not a cache-line multiple", sz)
	}
}

// TestActiveBitmapTracksTransactions: the bit is set exactly while a visible
// transaction is in flight in the slot (for engines that use slots), and the
// whole bitmap is clear once the system quiesces. A second Thread keeps the
// attempt shared — a lone Thread's may be solo and set no bit at all
// (TestSoloPublishesNothing) — and fails the first attempt, so an InvalSTM
// retry is visible rather than invisible (failFirstAttempt).
func TestActiveBitmapTracksTransactions(t *testing.T) {
	for _, algo := range []Algo{InvalSTM, RInvalV1, RInvalV2} {
		t.Run(algo.String(), func(t *testing.T) {
			s := MustNew(Config{Algo: algo, MaxThreads: 8, InvalServers: 2})
			th, idle := s.MustRegister(), s.MustRegister()
			if s.active.has(th.idx) {
				t.Fatal("bit set before any transaction")
			}
			if err := th.Atomically(func(tx *Tx) error {
				failFirstAttempt(t, tx, idle)
				if !s.active.has(th.idx) {
					t.Error("bit not set inside transaction")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if s.active.has(th.idx) {
				t.Fatal("bit still set after commit")
			}
			th.Close()
			idle.Close()
			for w := range s.active.words {
				if got := s.active.words[w].Load(); got != 0 {
					t.Fatalf("quiescent bitmap word %d = %x", w, got)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestActiveBitmapChurn is the concurrent doom test: client threads churn
// begin/deactivate (read-modify-writes on two shared counters, so the
// commit-time invalidation scan constantly walks the bitmap and dooms
// readers) while the scan path runs in the servers and in inline committers.
// Run under -race this checks the bitmap orderings; the final counter sum
// checks no lost updates — i.e. the bitmap never hid a live conflicting
// reader from the scan.
func TestActiveBitmapChurn(t *testing.T) {
	for _, algo := range []Algo{InvalSTM, RInvalV1, RInvalV2, RInvalV3} {
		t.Run(algo.String(), func(t *testing.T) {
			s := MustNew(Config{Algo: algo, MaxThreads: 16, InvalServers: 4})
			shared := []*Var{NewVar(0), NewVar(0)}
			const workers, iters = 8, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < iters; i++ {
						c := shared[(w+i)%len(shared)]
						if err := th.Atomically(func(tx *Tx) error {
							tx.Store(c, tx.Load(c).(int)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			total := shared[0].Peek().(int) + shared[1].Peek().(int)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if total != workers*iters {
				t.Errorf("lost updates: counters sum to %d, want %d (a conflicting reader escaped the scan)",
					total, workers*iters)
			}
			for w := range s.active.words {
				if got := s.active.words[w].Load(); got != 0 {
					t.Errorf("bitmap word %d = %x after quiesce", w, got)
				}
			}
		})
	}
}

// TestStoreOverwriteReplacesCell: a second Store to a Var inside one
// transaction drops the buffered cell for the new one — one allocation, the
// cell itself, and still one write-set entry. (A cell is handed to StoreBox
// already built, by a caller who alone knows its type, so there is nothing
// for the write set to mutate in place.)
func TestStoreOverwriteReplacesCell(t *testing.T) {
	for _, algo := range []Algo{Mutex, InvalSTM} {
		t.Run(algo.String(), func(t *testing.T) {
			s := MustNew(Config{Algo: algo, MaxThreads: 2})
			defer s.Close()
			th := s.MustRegister()
			defer th.Close()
			v := NewVar(0)
			// Pre-boxed values: interface conversion happens once, out here,
			// so the measurement isolates the write-set path.
			var first, val any = 1, 12345
			var allocs float64
			if err := th.Atomically(func(tx *Tx) error {
				tx.Store(v, first)
				buffered, _ := tx.ws.lookup(v)
				allocs = testing.AllocsPerRun(200, func() {
					tx.Store(v, val)
				})
				if b, _ := tx.ws.lookup(v); b == buffered || tx.ws.len() != 1 || tx.Load(v) != val {
					t.Errorf("overwrite left cell %p (was %p), %d entries, value %v", b, buffered, tx.ws.len(), tx.Load(v))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if allocs != 1 {
				t.Errorf("Store overwrite allocates %.1f objects/op, want 1 (the cell)", allocs)
			}
			if v.Peek() != val {
				t.Errorf("committed %v, want %v", v.Peek(), val)
			}
		})
	}
}

// TestReadLogSkippedWhenStatsOff: the invalidation engines only keep a lone
// Thread's read log for stats accounting, and so does NOrec, whose lone
// Thread runs solo; NOrec with a second Thread registered (and TL2) keeps it
// because revalidation replays it.
func TestReadLogSkippedWhenStatsOff(t *testing.T) {
	cases := []struct {
		algo    Algo
		stats   bool
		wantLog bool
		shared  bool
	}{
		{InvalSTM, false, false, false},
		{InvalSTM, true, true, false},
		{RInvalV2, false, false, false},
		{RInvalV2, true, true, false},
		{NOrec, false, false, false},
		{NOrec, true, true, false},
		{NOrec, false, true, true},
		{TL2, false, true, false},
	}
	for _, c := range cases {
		s := MustNew(Config{Algo: c.algo, MaxThreads: 4, InvalServers: 2, Stats: c.stats})
		th := s.MustRegister()
		var other *Thread
		if c.shared {
			other = s.MustRegister()
		}
		v := NewVar(7)
		var logged int
		if err := th.Atomically(func(tx *Tx) error {
			_ = tx.Load(v)
			logged = tx.rs.len()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := 0
		if c.wantLog {
			want = 1
		}
		if logged != want {
			t.Errorf("%s stats=%v shared=%v: read log has %d entries, want %d", c.algo, c.stats, c.shared, logged, want)
		}
		if other != nil {
			other.Close()
		}
		th.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
