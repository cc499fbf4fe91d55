package core

import (
	"fmt"
	"runtime"
	"testing"
)

// Tests for solo attempts (System.solo, DESIGN.md §3): where the engine drives
// a lone client's commit itself and at most one Thread is registered, an
// attempt publishes no read signature and no liveness; every read re-checks
// its stream's timestamp against the begin snapshot, and the commit validates
// the snapshot under its streams' locks (InvalSTM: one CAS from it). A Thread
// that registers mid-attempt makes the next attempts shared but does not
// change the running one. Every test runs at GOMAXPROCS 2, where RInval's
// servers share the clients' Ps (remoteEngine.coolServers).

// soloConfig is one engine layout the solo tests cover.
type soloConfig struct {
	algo   Algo
	shards int
}

func (c soloConfig) String() string { return fmt.Sprintf("%s/shards=%d", c.algo, c.shards) }

// soloConfigs is every invalidation engine at Shards 1 and, where the engine
// shards (RInval), 2.
func soloConfigs() []soloConfig {
	cs := []soloConfig{{InvalSTM, 1}}
	for _, algo := range rinvalAlgos {
		cs = append(cs, soloConfig{algo, 1}, soloConfig{algo, 2})
	}
	return cs
}

func (c soloConfig) new(t *testing.T) *System {
	t.Helper()
	s, err := New(Config{Algo: c.algo, MaxThreads: 4, Shards: c.shards, InvalServers: 2, StepsAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSoloRule: the one rule for a lone client. An attempt is solo exactly
// where the engine drives a lone client's commit itself — InvalSTM always,
// RInval below four Ps — and at most one Thread is registered; the predicate
// follows registrations both ways, and a begun attempt carries it. An
// InvalSTM attempt that is not solo is invisible, unless it retries a
// validation abort: then it is visible. An RInval attempt is never invisible.
func TestSoloRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, algo := range []Algo{InvalSTM, RInvalV1, RInvalV2, RInvalV3} {
			shards := 2
			if algo == InvalSTM {
				shards = 1
			}
			s, err := newSystem(Config{Algo: algo, MaxThreads: 3, Shards: shards, InvalServers: 2})
			if err != nil {
				t.Fatal(err)
			}
			lone := algo == InvalSTM || procs < 4
			check := func(threads int, th *Thread) {
				t.Helper()
				want := lone && threads < 2
				if got := s.solo(); got != want {
					t.Errorf("%s at GOMAXPROCS %d, %d threads: solo = %v, want %v", algo, procs, threads, got, want)
				}
				if th == nil {
					return
				}
				wantInvisible := algo == InvalSTM && !want
				if err := th.AtomicallyRO(func(tx *Tx) error {
					if tx.solo != want || tx.invisible != wantInvisible {
						t.Errorf("%s at GOMAXPROCS %d, %d threads: attempt solo = %v invisible = %v, want %v and %v",
							algo, procs, threads, tx.solo, tx.invisible, want, wantInvisible)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			check(0, nil)
			th1 := s.MustRegister()
			check(1, th1)
			th2 := s.MustRegister()
			check(2, th1)
			check(2, th2)
			if algo == InvalSTM {
				if err := th1.AtomicallyRO(func(tx *Tx) error {
					failFirstAttempt(t, tx, th2)
					if tx.solo || tx.invisible {
						t.Errorf("GOMAXPROCS %d: retry of a validation abort solo = %v invisible = %v, want a visible attempt",
							procs, tx.solo, tx.invisible)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			th2.Close()
			check(1, th1)
			th1.Close()
			check(0, nil)
		}
	}
}

// TestSoloPublishesNothing: a solo attempt sets no active bit, no ALIVE word
// and no read-signature bit, reads or writes; the same attempt with a second
// Thread registered, retrying a first attempt the second Thread failed, is
// visible and sets all three (an InvalSTM first attempt is invisible and
// sets none: TestInvisibleExtendsPastUnrelatedCommit).
func TestSoloPublishesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range soloConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			s := c.new(t)
			th := s.MustRegister()
			v, w := NewVar(0), NewVar(0)
			attempt := func(other *Thread) {
				t.Helper()
				wantSolo := other == nil
				if err := th.Atomically(func(tx *Tx) error {
					if other != nil {
						failFirstAttempt(t, tx, other)
					}
					tx.Store(w, tx.Load(v).(int)+1)
					_, alive := th.slot.aliveWord()
					if tx.solo != wantSolo || s.active.has(th.idx) == wantSolo || alive == wantSolo ||
						th.slot.readBF.MayContain(v.id) == wantSolo {
						t.Errorf("solo=%v active=%v alive=%v read bit=%v, want solo %v and the rest %v",
							tx.solo, s.active.has(th.idx), alive, th.slot.readBF.MayContain(v.id), wantSolo, !wantSolo)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			attempt(nil)
			other := s.MustRegister()
			attempt(other)
			other.Close()
			if s.active.has(th.idx) {
				t.Fatal("active bit left set after a shared commit")
			}
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSoloAbortsOnMidAttemptCommit: a Thread registered inside a solo attempt
// commits a Var the attempt read. The attempt cannot have been doomed — it
// published nothing — so the timestamps must catch it: a further read of
// the Var, or the attempt's own commit, aborts with AbortValidation and never
// returns the stale value or publishes a write computed from it; the retry,
// solo again once the other Thread closed, sees the new value.
func TestSoloAbortsOnMidAttemptCommit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range soloConfigs() {
		for _, at := range []string{"read", "commit"} {
			t.Run(c.String()+"/"+at, func(t *testing.T) {
				s := c.new(t)
				th := s.MustRegister()
				v, out := NewVar(0), NewVar(-1)
				var seen []int
				err := th.Atomically(func(tx *Tx) error {
					x := tx.Load(v).(int)
					seen = append(seen, x)
					if !tx.solo {
						t.Errorf("attempt %d with one Thread registered at its begin is not solo", tx.Attempt())
					}
					if tx.Attempt() == 1 {
						other := s.MustRegister()
						if err := other.Atomically(func(tx *Tx) error {
							tx.Store(v, 7)
							return nil
						}); err != nil {
							t.Error(err)
						}
						other.Close()
						if at == "read" {
							y := tx.Load(v).(int)
							t.Errorf("read after a mid-attempt commit returned %d", y)
						}
					}
					tx.Store(out, x)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(seen) != "[0 7]" || out.Peek().(int) != 7 {
					t.Fatalf("attempts saw %v and committed %v, want [0 7] and 7", seen, out.Peek())
				}
				st := th.Stats()
				if st.Aborts != 1 || st.AbortReasons[AbortValidation] != 1 {
					t.Fatalf("Aborts=%d validation aborts=%d, want 1/1", st.Aborts, st.AbortReasons[AbortValidation])
				}
				th.Close()
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSoloCommitDoomsMidAttemptReader: a Thread that registers inside a solo
// attempt runs shared and reads a Var the solo attempt then writes. Under
// RInval the reader is visible — eager, doomable — and the solo commit's scan
// over the other slots dooms it: its next operation aborts with
// AbortInvalidated. Under InvalSTM it is invisible, and the same operation
// fails validation instead; it cannot be made visible, since that takes a
// validation abort, and so a commit the solo attempt would see. Either way the
// retry reads the new value.
func TestSoloCommitDoomsMidAttemptReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range soloConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			s := c.new(t)
			th := s.MustRegister()
			v, u := NewVar(0), NewVar(0)
			read, committed, done := make(chan struct{}), make(chan struct{}), make(chan []int)
			var other *Thread
			if err := th.Atomically(func(tx *Tx) error {
				if !tx.solo || tx.Attempt() != 1 {
					t.Fatalf("attempt %d solo=%v, want the first and solo", tx.Attempt(), tx.solo)
				}
				tx.Store(v, tx.Load(v).(int)+1)
				other = s.MustRegister()
				go func() {
					var seen []int
					if err := other.AtomicallyRO(func(tx *Tx) error {
						seen = append(seen, tx.Load(v).(int))
						if tx.Attempt() == 1 {
							if tx.solo {
								t.Error("an attempt begun with two Threads registered is solo")
							}
							close(read)
							<-committed
						}
						tx.Load(u) // aborts by now on the first attempt
						return nil
					}); err != nil {
						t.Error(err)
					}
					done <- seen
				}()
				<-read
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			close(committed)
			if seen := <-done; fmt.Sprint(seen) != "[0 1]" {
				t.Fatalf("shared reader saw %v, want [0 1]", seen)
			}
			reason := AbortInvalidated
			if c.algo == InvalSTM {
				reason = AbortValidation
			}
			if st := other.Stats(); st.Aborts != 1 || st.AbortReasons[reason] != 1 {
				t.Fatalf("shared reader Aborts = %d, %v = %d, want 1 and 1", st.Aborts, reason, st.AbortReasons[reason])
			}
			if st := th.Stats(); st.Aborts != 0 {
				t.Fatalf("solo writer aborted %d times", st.Aborts)
			}
			other.Close()
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSoloCrossShardConservation: a lone Thread's transfers between Vars of
// two shards are solo cross-shard commits — no request published, every
// touched stream locked and validated by the client — and the total holds.
func TestSoloCrossShardConservation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := soloConfig{algo, 2}.new(t)
			a := NewVar(100)
			b := NewVar(100)
			for s.VarShard(b) == s.VarShard(a) {
				b = NewVar(100)
			}
			th := s.MustRegister()
			state := th.slot.state.Load()
			const n = 200
			for i := 0; i < n; i++ {
				if err := th.Atomically(func(tx *Tx) error {
					if !tx.solo {
						t.Fatal("a lone Thread's attempt is not solo")
					}
					x, y := tx.Load(a).(int), tx.Load(b).(int)
					tx.Store(a, x-i%7)
					tx.Store(b, y+i%7)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if sum := a.Peek().(int) + b.Peek().(int); sum != 200 {
				t.Fatalf("sum = %d, want 200", sum)
			}
			if got := th.slot.state.Load(); got != state {
				t.Fatalf("mailbox word %#x -> %#x: a solo commit published a request", state, got)
			}
			st := th.Stats()
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if cross := s.Stats().CrossShardCommits; st.Commits != n || st.HelpedEpochs != n || cross != n {
				t.Fatalf("Commits=%d HelpedEpochs=%d CrossShardCommits=%d, want all %d", st.Commits, st.HelpedEpochs, cross, n)
			}
		})
	}
}
