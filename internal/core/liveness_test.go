package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLivenessOneP: on a single P, with no scheduler call at a transaction
// boundary and no invalidation-server goroutine (serverTasks), every engine
// still finishes a fixed amount of work well inside a deadline. Two shapes per
// client count. "transfers": every client moves money between shared
// accounts. "ro-loopers": one writer does that, starting once every other
// client is already running back-to-back read-only transactions over all
// accounts without ever blocking — the writer gets the P from the runtime's
// preemption of a busy goroutine and from the wait loops' own yields
// (spin.Waiter), which is all the liveness argument rests on (DESIGN.md §3).
// Sums are conserved, inside every read-only transaction and at the end.
func TestLivenessOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const accounts, initial = 8, 100
	const deadline = 60 * time.Second
	for _, algo := range Algos {
		for _, clients := range []int{2, 4} {
			for _, writers := range []int{clients, 1} {
				// A lone writer waits out a ~10 ms time slice per looper each
				// time it loses the P, so it does fewer transfers.
				shape, per := "transfers", 5000
				if writers < clients {
					shape, per = "ro-loopers", 1000
				}
				t.Run(fmt.Sprintf("%s/c=%d/%s", algo, clients, shape), func(t *testing.T) {
					s, err := New(Config{Algo: algo, MaxThreads: clients, InvalServers: 2, StepsAhead: 2})
					if err != nil {
						t.Fatal(err)
					}
					vars := make([]*Var, accounts)
					for i := range vars {
						vars[i] = NewVar(initial)
					}
					var writersLeft atomic.Int32
					writersLeft.Store(int32(writers))
					// The writers start once every looper has committed once.
					var wg, looping sync.WaitGroup
					looping.Add(clients - writers)
					wg.Add(clients)
					for w := 0; w < clients; w++ {
						w := w
						go func() {
							defer wg.Done()
							th := s.MustRegister()
							defer th.Close()
							if w >= writers {
								for n := 0; writersLeft.Load() > 0; n++ {
									if err := th.Atomically(func(tx *Tx) error {
										sum := 0
										for _, v := range vars {
											sum += tx.Load(v).(int)
										}
										if sum != accounts*initial {
											t.Errorf("looper %d read sum %d, want %d", w, sum, accounts*initial)
										}
										return nil
									}); err != nil {
										t.Errorf("looper %d: %v", w, err)
									}
									if n == 0 {
										looping.Done()
									}
								}
								return
							}
							defer writersLeft.Add(-1)
							looping.Wait()
							for i := 0; i < per; i++ {
								from, to := vars[(w+i)%accounts], vars[(w+i+1)%accounts]
								if err := th.Atomically(func(tx *Tx) error {
									tx.Store(from, tx.Load(from).(int)-1)
									tx.Store(to, tx.Load(to).(int)+1)
									return nil
								}); err != nil {
									t.Errorf("writer %d: %v", w, err)
									return
								}
							}
						}()
					}
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(deadline):
						t.Fatalf("%d of %d writers still running after %v", writersLeft.Load(), writers, deadline)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					total := 0
					for _, v := range vars {
						total += v.Peek().(int)
					}
					if total != accounts*initial {
						t.Fatalf("sum = %d, want %d", total, accounts*initial)
					}
					if st := s.Stats(); st.Commits < uint64(writers*per) || st.Writes < uint64(2*writers*per) {
						t.Fatalf("Commits = %d, Writes = %d, want at least %d and %d", st.Commits, st.Writes, writers*per, 2*writers*per)
					}
				})
			}
		}
	}
}

// TestServerTasksRule: an RInval engine starts one commit-server per stream
// and, only when GOMAXPROCS leaves them a P, InvalServers/Shards
// invalidation-servers per stream besides (V2/V3); the rule is fixed at New.
// No other engine starts a server.
func TestServerTasksRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const inval = 4
	for _, procs := range []int{1, 3, 4} {
		runtime.GOMAXPROCS(procs)
		for _, algo := range Algos {
			remote := algo == RInvalV1 || algo == RInvalV2 || algo == RInvalV3
			for _, shards := range []int{1, 2} {
				if shards > 1 && !remote {
					continue
				}
				s, err := newSystem(Config{Algo: algo, MaxThreads: inval, Shards: shards, InvalServers: inval})
				if err != nil {
					t.Fatal(err)
				}
				name := func(base string, j int) string {
					if shards == 1 {
						return base
					}
					return fmt.Sprintf("shard%d-%s", j, base)
				}
				var want, got []string
				for j := 0; remote && j < shards; j++ {
					want = append(want, name("commit-server", j))
					for k := 0; procs >= 4 && algo != RInvalV1 && k < inval/shards; k++ {
						want = append(want, name(fmt.Sprintf("inval-server-%d", k), j))
					}
				}
				for _, task := range s.eng.serverTasks() {
					got = append(got, task.name)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s, %d shards at GOMAXPROCS %d: server tasks %v, want %v", algo, shards, procs, got, want)
				}
			}
		}
	}
}
