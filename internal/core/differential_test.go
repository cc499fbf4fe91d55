package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestDifferentialSingleThread runs one deterministic operation trace
// through every engine and demands bit-identical final state: with a single
// thread there is no nondeterminism, so any divergence is an engine bug.
func TestDifferentialSingleThread(t *testing.T) {
	const nvars, ops = 12, 800
	type result [nvars]int
	run := func(algo Algo) (result, Stats) {
		s := MustNew(Config{Algo: algo, MaxThreads: 4, InvalServers: 1})
		defer s.Close()
		th := s.MustRegister()
		vars := make([]*Var, nvars)
		for i := range vars {
			vars[i] = NewVar(i)
		}
		rng := uint64(42)
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 16
		}
		for op := 0; op < ops; op++ {
			a := int(next()) % nvars
			b := int(next()) % nvars
			k := int(next()) % 3
			_ = th.Atomically(func(tx *Tx) error {
				switch k {
				case 0: // transfer-ish
					av := tx.Load(vars[a]).(int)
					bv := tx.Load(vars[b]).(int)
					tx.Store(vars[a], av+bv)
				case 1: // swap
					av := tx.Load(vars[a]).(int)
					bv := tx.Load(vars[b]).(int)
					tx.Store(vars[a], bv)
					tx.Store(vars[b], av)
				case 2: // conditional user abort
					if tx.Load(vars[a]).(int)%2 == 0 {
						tx.Store(vars[b], -1)
						return errDiffAbort
					}
					tx.Store(vars[b], tx.Load(vars[b]).(int)+1)
				}
				return nil
			})
		}
		var out result
		for i, v := range vars {
			out[i] = v.Peek().(int)
		}
		st := th.Stats()
		th.Close()
		return out, st
	}

	ref, refStats := run(Algos[0])
	for _, algo := range Algos[1:] {
		got, st := run(algo)
		if got != ref {
			t.Errorf("%v diverged from %v:\n ref=%v\n got=%v", algo, Algos[0], ref, got)
		}
		// Single-threaded: no conflicts, so commit counts must agree too.
		if st.Commits != refStats.Commits {
			t.Errorf("%v commits %d != %d", algo, st.Commits, refStats.Commits)
		}
	}
}

var errDiffAbort = fmt.Errorf("diff abort")

// TestDifferentialConcurrentConservation runs the same concurrent transfer
// workload under every engine; the interleavings differ but the conserved
// quantity must not.
func TestDifferentialConcurrentConservation(t *testing.T) {
	const nvars, workers, per, initial = 8, 6, 120, 1000
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		vars := make([]*Var, nvars)
		for i := range vars {
			vars[i] = NewVar(initial)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				rng := uint64(w + 7)
				next := func() int {
					rng = rng*6364136223846793005 + 1442695040888963407
					return int(rng >> 33)
				}
				for i := 0; i < per; i++ {
					from, to, amt := next()%nvars, next()%nvars, next()%25
					_ = th.Atomically(func(tx *Tx) error {
						tx.Store(vars[from], tx.Load(vars[from]).(int)-amt)
						tx.Store(vars[to], tx.Load(vars[to]).(int)+amt)
						return nil
					})
				}
			}()
		}
		wg.Wait()
		total := 0
		for _, v := range vars {
			total += v.Peek().(int)
		}
		if total != nvars*initial {
			t.Fatalf("conservation violated: %d != %d", total, nvars*initial)
		}
		st := s.Stats()
		if st.Commits != workers*per {
			t.Fatalf("commits %d != %d", st.Commits, workers*per)
		}
	})
}

// TestSlotReuseAfterRemoteCommits exercises register/unregister churn on a
// remote engine: a slot that served commits must be safely reusable by a new
// thread, including its epoch and filter state.
func TestSlotReuseAfterRemoteCommits(t *testing.T) {
	s := MustNew(Config{Algo: RInvalV2, MaxThreads: 2, InvalServers: 1})
	defer s.Close()
	x := NewVar(0)
	for round := 0; round < 40; round++ {
		th := s.MustRegister()
		if err := th.Atomically(func(tx *Tx) error {
			tx.Store(x, tx.Load(x).(int)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		th.Close()
	}
	if x.Peek().(int) != 40 {
		t.Fatalf("got %v", x.Peek())
	}
	st := s.Stats()
	if st.Commits != 40 {
		t.Fatalf("commits %d", st.Commits)
	}
}

// TestServerStatsAggregatedOnClose: the commit-server's activity (remote
// invalidations) must appear in System.Stats after Close.
func TestServerStatsAggregatedOnClose(t *testing.T) {
	s := MustNew(Config{Algo: RInvalV1, MaxThreads: 8})
	x := NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.MustRegister()
			defer th.Close()
			for i := 0; i < 100; i++ {
				_ = th.Atomically(func(tx *Tx) error {
					tx.Store(x, tx.Load(x).(int)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	before := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	// The server counted every commit it executed; client-side stats do not.
	if after.Commits < before.Commits {
		t.Fatalf("stats shrank after Close: %d -> %d", before.Commits, after.Commits)
	}
	if x.Peek().(int) != 400 {
		t.Fatalf("final %v", x.Peek())
	}
}

// TestPrivatization: the coarse-grained family is privatization-safe (§IV-E):
// after a transaction detaches a node from a shared structure and commits,
// the owner may access the detached data non-transactionally without racing
// a delayed writer.
func TestPrivatization(t *testing.T) {
	for _, algo := range []Algo{NOrec, InvalSTM, RInvalV1, RInvalV2, RInvalV3} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo, nil)
			type nodeT struct {
				val  *Var
				next *Var // holds *nodeT
			}
			n2 := &nodeT{val: NewVar(2), next: NewVar((*nodeT)(nil))}
			n1 := &nodeT{val: NewVar(1), next: NewVar(n2)}
			head := NewVar(n1)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Mutator: transactionally increments values of reachable nodes.
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = th.Atomically(func(tx *Tx) error {
						n := tx.Load(head).(*nodeT)
						for n != nil {
							tx.Store(n.val, tx.Load(n.val).(int)+1)
							ni := tx.Load(n.next)
							n, _ = ni.(*nodeT)
						}
						return nil
					})
				}
			}()
			// Privatizer: detach n2, then read it non-transactionally many
			// times; its value must never change after privatization.
			th := s.MustRegister()
			defer th.Close()
			var detached *nodeT
			if err := th.Atomically(func(tx *Tx) error {
				n := tx.Load(head).(*nodeT)
				ni := tx.Load(n.next)
				detached, _ = ni.(*nodeT)
				tx.Store(n.next, (*nodeT)(nil))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			frozen := detached.val.Peek().(int)
			for i := 0; i < 2000; i++ {
				if got := detached.val.Peek().(int); got != frozen {
					t.Fatalf("privatized node mutated: %d -> %d", frozen, got)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
