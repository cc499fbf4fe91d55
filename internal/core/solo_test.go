package core

import (
	"fmt"
	"runtime"
	"testing"
)

// Tests for solo attempts (System.attemptKind, DESIGN.md §3): where the
// engine's clients commit themselves and at most one Thread is registered, an
// attempt publishes no read signature and no liveness; every read re-checks
// its stream's timestamp against the begin snapshot, and the commit validates
// the snapshot under its streams' locks (NOrec, InvalSTM: one CAS). A Thread
// that registers mid-attempt makes the next attempts shared but does not
// change the running one. Every test runs at GOMAXPROCS 2, where RInval's
// servers share the clients' Ps (coolServers) and no stream has partitions.

// soloConfig is one engine layout the solo tests cover.
type soloConfig struct {
	algo   Algo
	shards int
}

func (c soloConfig) String() string { return fmt.Sprintf("%s/shards=%d", c.algo, c.shards) }

// soloConfigs is NOrec and every invalidation engine at Shards 1 and, where
// the engine shards (RInval), 2.
func soloConfigs() []soloConfig {
	cs := []soloConfig{{NOrec, 1}, {InvalSTM, 1}}
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

// String names the kind in test failures.
func (k attemptKind) String() string {
	return [...]string{"validated", "snapshot", "direct", "solo", "invisible", "visible"}[k]
}

// TestAttemptKindRule: the one rule for an attempt's kind, over all seven
// engines. Mutex's attempts are direct, TL2's validated. An attempt is solo
// exactly where the engine's clients commit themselves — NOrec and InvalSTM
// always, RInval below four Ps — and at most one Thread is registered,
// whatever the previous attempt; the rule follows registrations both ways,
// and a begun attempt carries it. There a shared attempt is invisible, unless
// it retries a validation abort on an invalidation engine: then it is
// visible. NOrec, which has no visible read, is invisible on that retry too.
// A shared RInval attempt at four Ps is always visible. The first attempt of
// an AtomicallyRO call with Versions is a snapshot one on every engine that
// has versions, with its roActive bit set; a later one takes the rule above.
func TestAttemptKindRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, algo := range Algos {
			shards := 1
			if algo == RInvalV1 || algo == RInvalV2 || algo == RInvalV3 {
				shards = 2
			}
			s, err := newSystem(Config{Algo: algo, MaxThreads: 3, Shards: shards, InvalServers: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := func(threads int, retry bool) attemptKind {
				switch algo {
				case Mutex:
					return kindDirect
				case TL2:
					return kindValidated
				}
				switch {
				case algo != InvalSTM && algo != NOrec && procs >= 4:
					return kindVisible
				case threads < 2:
					return kindSolo
				case retry && algo != NOrec:
					return kindVisible
				}
				return kindInvisible
			}
			check := func(threads int, th *Thread) {
				t.Helper()
				for _, retry := range []bool{false, true} {
					probe := &Tx{snap: make([]uint64, shards)}
					if got := s.attemptKind(probe, retry); got != want(threads, retry) {
						t.Errorf("%s at GOMAXPROCS %d, %d threads, retry %v: kind %v, want %v",
							algo, procs, threads, retry, got, want(threads, retry))
					}
				}
				if th == nil {
					return
				}
				if err := th.AtomicallyRO(func(tx *Tx) error {
					if tx.kind != want(threads, false) {
						t.Errorf("%s at GOMAXPROCS %d, %d threads: attempt kind %v, want %v",
							algo, procs, threads, tx.kind, want(threads, false))
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
			if want(2, false) == kindInvisible {
				if err := th1.AtomicallyRO(func(tx *Tx) error {
					failFirstAttempt(t, tx, th2)
					if tx.kind != want(2, true) {
						t.Errorf("%s at GOMAXPROCS %d: retry of a validation abort is %v, want %v", algo, procs, tx.kind, want(2, true))
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
	for _, algo := range mvAlgos {
		s := MustNew(Config{Algo: algo, Versions: 2})
		th := s.MustRegister()
		regular := s.attemptKind(&Tx{snap: make([]uint64, 1)}, false)
		for attempt := 1; attempt <= 2; attempt++ {
			probe := &Tx{th: th, stats: &th.stats, snap: make([]uint64, 1), roUser: true, attempts: attempt}
			want := regular
			if attempt == 1 {
				want = kindSnapshot
			}
			if got := s.attemptKind(probe, false); got != want || s.roActive.has(th.idx) != (want == kindSnapshot) {
				t.Errorf("%s: AtomicallyRO attempt %d with Versions is %v (roActive %v), want %v",
					algo, attempt, got, s.roActive.has(th.idx), want)
			}
			s.roActive.clear(th.idx)
		}
		if err := th.AtomicallyRO(func(tx *Tx) error {
			if tx.kind != kindSnapshot {
				t.Errorf("%s: AtomicallyRO attempt with Versions is %v, want snapshot", algo, tx.kind)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		th.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSoloPublishesNothing: a solo attempt sets no active bit, no ALIVE word
// and no read-signature bit, reads or writes; the same attempt with a second
// Thread registered, retrying a first attempt the second Thread failed, is
// visible and sets all three (an InvalSTM first attempt is invisible and
// sets none: TestInvisibleExtendsPastUnrelatedCommit), except on NOrec, whose
// retry is invisible too.
func TestSoloPublishesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range soloConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			s := c.new(t)
			th := s.MustRegister()
			v, w := NewVar(0), NewVar(0)
			attempt := func(other *Thread) {
				t.Helper()
				wantSolo, visible := other == nil, other != nil && c.algo != NOrec
				if err := th.Atomically(func(tx *Tx) error {
					if other != nil {
						failFirstAttempt(t, tx, other)
					}
					tx.Store(w, tx.Load(v).(int)+1)
					_, alive := th.slot.aliveWord()
					if (tx.kind == kindSolo) != wantSolo || s.active.has(th.idx) != visible || alive != visible ||
						th.slot.readBF.MayContain(v.id) != visible {
						t.Errorf("kind=%v active=%v alive=%v read bit=%v, want solo %v and the rest %v",
							tx.kind, s.active.has(th.idx), alive, th.slot.readBF.MayContain(v.id), wantSolo, visible)
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
					if tx.kind != kindSolo {
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

// TestSoloCommitFailsMidAttemptReader: a Thread that registers inside a solo
// attempt runs shared and reads a Var the solo attempt then writes. The reader
// is invisible, so the solo commit cannot doom it: its next read on the
// written stream fails validation instead. It cannot be made visible: NOrec
// has no visible attempt, and elsewhere that takes a validation abort, and so
// a commit the solo attempt would see. The retry reads the new value. (An
// invisible commit's doom of a visible reader:
// TestInvisibleCommitDoomsVisibleReader.)
func TestSoloCommitFailsMidAttemptReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range soloConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			s := c.new(t)
			th := s.MustRegister()
			// u shares v's stream: a read on a stream the commit left alone
			// would still find the reader's snapshot current.
			v, u := NewVar(0), NewVar(0)
			for s.VarShard(u) != s.VarShard(v) {
				u = NewVar(0)
			}
			read, committed, done := make(chan struct{}), make(chan struct{}), make(chan []int)
			var other *Thread
			if err := th.Atomically(func(tx *Tx) error {
				if tx.kind != kindSolo || tx.Attempt() != 1 {
					t.Fatalf("attempt %d kind %v, want the first and solo", tx.Attempt(), tx.kind)
				}
				tx.Store(v, tx.Load(v).(int)+1)
				other = s.MustRegister()
				go func() {
					var seen []int
					if err := other.AtomicallyRO(func(tx *Tx) error {
						seen = append(seen, tx.Load(v).(int))
						if tx.Attempt() == 1 {
							if tx.kind != kindInvisible {
								t.Errorf("an attempt begun with two Threads registered is %v, want invisible", tx.kind)
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
			if st := other.Stats(); st.Aborts != 1 || st.AbortReasons[AbortValidation] != 1 {
				t.Fatalf("shared reader Aborts = %d, validation aborts = %d, want 1 and 1", st.Aborts, st.AbortReasons[AbortValidation])
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
					if tx.kind != kindSolo {
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
