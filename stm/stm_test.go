package stm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/ssrg-vt/rinval/stm"
)

func newSys(t *testing.T, algo stm.Algo) *stm.System {
	t.Helper()
	s, err := stm.New(stm.Config{Algo: algo, MaxThreads: 16, InvalServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func TestTypedVarsAcrossEngines(t *testing.T) {
	type point struct{ X, Y int }
	for _, algo := range stm.Algos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo)
			th := s.MustRegister()
			defer th.Close()

			i := stm.NewVar(7)
			str := stm.NewVar("a")
			p := stm.NewVar(point{1, 2})
			sl := stm.NewVar([]int{1, 2, 3})

			err := th.Atomically(func(tx *stm.Tx) error {
				i.Store(tx, i.Load(tx)+1)
				str.Store(tx, str.Load(tx)+"b")
				pt := p.Load(tx)
				pt.X++
				p.Store(tx, pt)
				old := sl.Load(tx)
				next := make([]int, len(old)+1)
				copy(next, old)
				next[len(old)] = 4
				sl.Store(tx, next)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i.Peek() != 8 || str.Peek() != "ab" {
				t.Fatalf("i=%d str=%q", i.Peek(), str.Peek())
			}
			if p.Peek() != (point{2, 2}) {
				t.Fatalf("p=%+v", p.Peek())
			}
			if got := sl.Peek(); len(got) != 4 || got[3] != 4 {
				t.Fatalf("sl=%v", got)
			}
		})
	}
}

func TestModify(t *testing.T) {
	s := newSys(t, stm.NOrec)
	th := s.MustRegister()
	defer th.Close()
	v := stm.NewVar(10)
	if err := th.Atomically(func(tx *stm.Tx) error {
		v.Modify(tx, func(x int) int { return x * 3 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Peek() != 30 {
		t.Fatalf("got %d", v.Peek())
	}
}

func TestUserAbortReturnsError(t *testing.T) {
	s := newSys(t, stm.RInvalV2)
	th := s.MustRegister()
	defer th.Close()
	v := stm.NewVar(1)
	sentinel := errors.New("nope")
	err := th.Atomically(func(tx *stm.Tx) error {
		v.Store(tx, 2)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v", err)
	}
	if v.Peek() != 1 {
		t.Fatal("write leaked")
	}
}

func TestPeekSetID(t *testing.T) {
	v := stm.NewVar("x")
	if v.Peek() != "x" {
		t.Fatal("Peek")
	}
	v.Set("y")
	if v.Peek() != "y" {
		t.Fatal("Set")
	}
	w := stm.NewVar("z")
	if v.ID() == 0 || v.ID() == w.ID() {
		t.Fatal("IDs must be nonzero and unique")
	}
}

func TestParseAlgoNames(t *testing.T) {
	for _, a := range stm.Algos {
		got, err := stm.ParseAlgo(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip %v: %v %v", a, got, err)
		}
	}
}

func TestConcurrentTypedCounter(t *testing.T) {
	for _, algo := range stm.Algos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo)
			c := stm.NewVar(uint64(0))
			const workers, per = 6, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < per; i++ {
						_ = th.Atomically(func(tx *stm.Tx) error {
							c.Modify(tx, func(x uint64) uint64 { return x + 1 })
							return nil
						})
					}
				}()
			}
			wg.Wait()
			if c.Peek() != workers*per {
				t.Fatalf("got %d want %d", c.Peek(), workers*per)
			}
			st := s.Stats()
			if st.Commits < workers*per {
				t.Fatalf("stats commits %d", st.Commits)
			}
		})
	}
}

func TestQuickTypedRoundTrip(t *testing.T) {
	s := newSys(t, stm.RInvalV1)
	th := s.MustRegister()
	defer th.Close()
	f := func(vals []int64) bool {
		v := stm.NewVar(int64(0))
		for _, x := range vals {
			if err := th.Atomically(func(tx *stm.Tx) error {
				v.Store(tx, x)
				return nil
			}); err != nil {
				return false
			}
			if v.Peek() != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func ExampleSystem() {
	sys := stm.MustNew(stm.Config{Algo: stm.RInvalV2, MaxThreads: 4, InvalServers: 2})
	defer sys.Close()

	account := stm.NewVar(100)
	th := sys.MustRegister()
	defer th.Close()

	_ = th.Atomically(func(tx *stm.Tx) error {
		account.Store(tx, account.Load(tx)-30)
		return nil
	})
	fmt.Println(account.Peek())
	// Output: 70
}

// TestAtomicallyRO exercises the typed read-only wrapper: snapshot reads see
// committed state, Store panics inside a read-only transaction, and the
// snapshot counters surface through the typed Stats alias.
func TestAtomicallyRO(t *testing.T) {
	s, err := stm.New(stm.Config{Algo: stm.RInvalV2, MaxThreads: 8, InvalServers: 2, Versions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	th := s.MustRegister()
	defer th.Close()

	a, b := stm.NewVar(40), stm.NewVar(2)
	if err := th.Atomically(func(tx *stm.Tx) error {
		a.Store(tx, a.Load(tx)+b.Load(tx))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := th.AtomicallyRO(func(tx *stm.Tx) error {
		got = a.Load(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("snapshot read %d, want 42", got)
	}
	if st := th.Stats(); st.ROCommits != 1 || st.ROFallbacks != 0 {
		t.Fatalf("stats %+v: want one snapshot commit, no fallbacks", st)
	}

	roErr := errors.New("user abort")
	if err := th.AtomicallyRO(func(tx *stm.Tx) error { return roErr }); !errors.Is(err, roErr) {
		t.Fatalf("user abort not returned: %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("Store inside AtomicallyRO did not panic")
		}
	}()
	_ = th.AtomicallyRO(func(tx *stm.Tx) error {
		a.Store(tx, 0)
		return nil
	})
}

// TestShardedCommitAccounting plants an exact cross-shard load through the
// public API: Vars pinned to streams with ShardOf, MaxBatch=1 so one epoch
// retires one commit, and per client one transaction in ten writing a second
// stream. The stream counters must account for every planted commit.
func TestShardedCommitAccounting(t *testing.T) {
	const clients, iters, crossEvery = 4, 40, 10
	for _, shards := range []int{1, 4} {
		s, err := stm.New(stm.Config{Algo: stm.RInvalV1, MaxThreads: 8, Shards: shards,
			InvalServers: 2 * shards, MaxBatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", s.Shards(), shards)
		}
		// pinned returns a fresh Var owned by the given stream; ids hash
		// uniformly, so it costs about `shards` allocations.
		pinned := func(shard int) *stm.Var[int] {
			for {
				if v := stm.NewVar(0); stm.ShardOf(s, v) == shard {
					return v
				}
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			home, away := pinned(c%shards), pinned((c+1)%shards)
			th := s.MustRegister()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer th.Close()
				for i := 0; i < iters; i++ {
					if err := th.Atomically(func(tx *stm.Tx) error {
						home.Store(tx, i)
						if i%crossEvery == 0 {
							away.Store(tx, i)
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wantCross := uint64(0) // at Shards=1 every footprint is one stream
		if shards > 1 {
			wantCross = clients * iters / crossEvery
		}
		per := s.ShardServerStats()
		if len(per) != shards {
			t.Fatalf("S=%d: ShardServerStats has %d entries", shards, len(per))
		}
		var commits, epochs uint64
		for _, sh := range per {
			commits += sh.Commits
			epochs += sh.Epochs
		}
		st := s.Stats()
		if commits != clients*iters || st.Commits != clients*iters || st.Epochs != clients*iters {
			t.Errorf("S=%d: stream commits = %d, Stats().Commits = %d, epochs = %d, want %d each",
				shards, commits, st.Commits, st.Epochs, clients*iters)
		}
		if st.CrossShardCommits != wantCross {
			t.Errorf("S=%d: cross-shard commits = %d, want %d", shards, st.CrossShardCommits, wantCross)
		}
		// The handshake charges its one combined epoch to the leading stream.
		if epochs != st.Epochs {
			t.Errorf("S=%d: per-stream epochs sum to %d, Stats().Epochs = %d", shards, epochs, st.Epochs)
		}
	}
}
