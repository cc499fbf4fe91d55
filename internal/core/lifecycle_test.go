package core

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRegisterExhaustion(t *testing.T) {
	s, err := New(Config{Algo: NOrec, MaxThreads: 2, InvalServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := s.MustRegister()
	b := s.MustRegister()
	if _, err := s.Register(); err == nil {
		t.Fatal("third Register succeeded with MaxThreads=2")
	}
	a.Close()
	c, err := s.Register()
	if err != nil {
		t.Fatalf("Register after release: %v", err)
	}
	c.Close()
	b.Close()
}

func TestCloseWithLiveThreadFails(t *testing.T) {
	s, err := New(Config{Algo: RInvalV2})
	if err != nil {
		t.Fatal(err)
	}
	th := s.MustRegister()
	if err := s.Close(); err == nil {
		t.Fatal("Close succeeded with live thread")
	}
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if _, err := s.Register(); err == nil {
		t.Fatal("Register succeeded on closed system")
	}
}

func TestThreadCloseIdempotent(t *testing.T) {
	s := newSys(t, RInvalV1, nil)
	th := s.MustRegister()
	th.Close()
	th.Close() // must not panic or corrupt the free list
	th2 := s.MustRegister()
	defer th2.Close()
}

func TestNestedAtomicallyPanics(t *testing.T) {
	s := newSys(t, NOrec, nil)
	th := s.MustRegister()
	defer th.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Atomically did not panic")
		}
	}()
	_ = th.Atomically(func(tx *Tx) error {
		return th.Atomically(func(tx *Tx) error { return nil })
	})
}

func TestCloseInsideTxPanics(t *testing.T) {
	s := newSys(t, NOrec, nil)
	th := s.MustRegister()
	defer func() {
		if recover() == nil {
			t.Fatal("Close inside tx did not panic")
		}
		th.Close()
	}()
	_ = th.Atomically(func(tx *Tx) error {
		th.Close()
		return nil
	})
}

func TestAtomicallyOnClosedThreadPanics(t *testing.T) {
	s := newSys(t, NOrec, nil)
	th := s.MustRegister()
	th.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Atomically on closed thread did not panic")
		}
	}()
	_ = th.Atomically(func(tx *Tx) error { return nil })
}

func TestServerStartStopAllRemoteEngines(t *testing.T) {
	// Systems with server goroutines must start and stop cleanly even when
	// no transaction ever runs.
	for _, algo := range []Algo{RInvalV1, RInvalV2, RInvalV3} {
		for i := 0; i < 3; i++ {
			s, err := New(Config{Algo: algo, MaxThreads: 8, InvalServers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestStatsAggregationAcrossRetiredThreads(t *testing.T) {
	s := newSys(t, NOrec, nil)
	x := NewVar(0)
	for round := 0; round < 3; round++ {
		th := s.MustRegister()
		for i := 0; i < 5; i++ {
			if err := th.Atomically(func(tx *Tx) error {
				tx.Store(x, tx.Load(x).(int)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
	}
	st := s.Stats()
	if st.Commits != 15 {
		t.Fatalf("aggregated commits %d want 15", st.Commits)
	}
	if x.Peek().(int) != 15 {
		t.Fatal("final value wrong")
	}
}

// TestQuickSequentialEquivalence: a random batch of read-modify-write ops
// applied through any engine by a single thread must produce exactly the
// state a plain sequential interpreter produces.
func TestQuickSequentialEquivalence(t *testing.T) {
	type op struct {
		VarIdx uint8
		Delta  int8
	}
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		th := s.MustRegister()
		defer th.Close()
		f := func(ops []op) bool {
			const nvars = 8
			vars := make([]*Var, nvars)
			model := make([]int, nvars)
			for i := range vars {
				vars[i] = NewVar(0)
			}
			for _, o := range ops {
				i := int(o.VarIdx) % nvars
				model[i] += int(o.Delta)
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(vars[i], tx.Load(vars[i]).(int)+int(o.Delta))
					return nil
				}); err != nil {
					return false
				}
			}
			for i := range vars {
				if vars[i].Peek().(int) != model[i] {
					return false
				}
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 20}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickConcurrentConservation: random transfer batches executed by
// concurrent threads conserve the total across engines.
func TestQuickConcurrentConservation(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		f := func(seeds [4]uint16) bool {
			const nvars = 6
			vars := make([]*Var, nvars)
			for i := range vars {
				vars[i] = NewVar(50)
			}
			var wg sync.WaitGroup
			for w := 0; w < len(seeds); w++ {
				seed := uint64(seeds[w]) + 1
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					rng := seed
					next := func() int {
						rng = rng*6364136223846793005 + 1442695040888963407
						return int(rng >> 33)
					}
					for i := 0; i < 30; i++ {
						from, to, amt := next()%nvars, next()%nvars, next()%9
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
			return total == nvars*50
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew accepted bad config")
		}
	}()
	MustNew(Config{MaxThreads: -5})
}

func TestAccessors(t *testing.T) {
	s := newSys(t, RInvalV2, nil)
	if s.Algo() != RInvalV2 {
		t.Fatal("Algo accessor")
	}
	if s.Config().MaxThreads != 16 {
		t.Fatalf("Config accessor: %+v", s.Config())
	}
	th := s.MustRegister()
	defer th.Close()
	if th.ID() < 0 || th.ID() >= 16 {
		t.Fatalf("thread id %d", th.ID())
	}
	_ = s.Timestamp()
}
