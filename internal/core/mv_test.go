package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// mvAlgos is every engine that accepts Config.Versions (all but TL2, whose
// per-Var verlock clock is not the seqlock epoch the version rings stamp).
var mvAlgos = []Algo{Mutex, NOrec, InvalSTM, RInvalV1, RInvalV2, RInvalV3}

func TestVersionsConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Versions: 1},
		{Versions: -3},
		{Versions: 2048},
		{Algo: TL2, Versions: 4},
	} {
		if _, err := bad.withDefaults(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	c, err := Config{Versions: 4}.withDefaults()
	if err != nil || c.Versions != 4 {
		t.Fatalf("Versions=4 rejected: %+v, %v", c, err)
	}
	if c, err := (Config{}).withDefaults(); err != nil || c.Versions != 0 {
		t.Fatalf("default Versions not 0: %+v, %v", c, err)
	}
}

// TestVersionRingResolve drives appendVersion/versionAt directly: epoch
// resolution picks the newest entry at or below the snapshot, the GC sweep
// trims strictly below the floor entry, and a lapped ring reports false.
func TestVersionRingResolve(t *testing.T) {
	v := NewVar("e0")
	// Before any versioned write-back, every snapshot resolves to the head.
	// at resolves a snapshot epoch to the any-API value of the cell found.
	at := func(e uint64) (any, bool) {
		b, ok := v.versionAt(e)
		if !ok {
			return nil, false
		}
		return anyOf(b).v, true
	}
	if got, ok := at(0); !ok || got != "e0" {
		t.Fatalf("fresh head: %v %v", got, ok)
	}

	// Commit epochs 2, 4, 6 with an unbounded floor (no trimming). Capacity 8
	// keeps the ring un-full: versionAt refuses the oldest entry of a full
	// ring (a concurrent append may already be overwriting its slot).
	for _, e := range []uint64{2, 4, 6} {
		b := newAnyCell("e" + string(rune('0'+e)))
		b.epoch = e
		v.appendVersion(b, 8, 0)
		v.storeBox(b)
	}
	want := map[uint64]string{0: "e0", 1: "e0", 2: "e2", 3: "e2", 4: "e4", 5: "e4", 6: "e6", 99: "e6"}
	for snap, val := range want {
		if got, ok := at(snap); !ok || got != val {
			t.Errorf("versionAt(%d) = %v, %v; want %q", snap, got, ok, val)
		}
	}

	// A floor of 4 makes "e4" the oldest entry any reader can need: the
	// sweep on the next append must drop e0 and e2 but keep e4.
	b8 := newAnyCell("e8")
	b8.epoch = 8
	v.appendVersion(b8, 8, 4)
	v.storeBox(b8)
	if _, ok := at(3); ok {
		t.Error("trimmed epoch still resolvable")
	}
	if got, ok := at(5); !ok || got != "e4" {
		t.Errorf("floor survivor: %v, %v", got, ok)
	}

	// Lap the ring (capacity 8): old snapshots must fall back, the newest
	// entries must still resolve.
	for e := uint64(10); e <= 30; e += 2 {
		b := newAnyCell("new")
		b.epoch = e
		v.appendVersion(b, 8, 0)
		v.storeBox(b)
	}
	if _, ok := at(5); ok {
		t.Error("lapped snapshot resolved")
	}
	if got, ok := at(19); !ok || got != "new" {
		t.Errorf("recent snapshot: %v, %v", got, ok)
	}
}

func TestROSnapshotBasicAndStorePanics(t *testing.T) {
	for _, algo := range mvAlgos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo, func(c *Config) { c.Versions = 4; c.Stats = true })
			th := s.MustRegister()
			defer th.Close()
			x, y := NewVar(1), NewVar(2)
			if err := th.Atomically(func(tx *Tx) error {
				tx.Store(x, 10)
				tx.Store(y, 20)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var sum int
			if err := th.AtomicallyRO(func(tx *Tx) error {
				sum = tx.Load(x).(int) + tx.Load(y).(int)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if sum != 30 {
				t.Fatalf("snapshot read %d, want 30", sum)
			}
			st := th.Stats()
			if st.ROCommits != 1 || st.ReadOnly != 1 || st.ROFallbacks != 0 {
				t.Fatalf("stats %+v: want ROCommits=1 ReadOnly=1 ROFallbacks=0", st)
			}

			defer func() {
				if recover() == nil {
					t.Error("Store inside AtomicallyRO did not panic")
				}
			}()
			_ = th.AtomicallyRO(func(tx *Tx) error {
				tx.Store(x, 99)
				return nil
			})
		})
	}
}

// TestROSnapshotKindLifecycle: the first attempt of an AtomicallyRO call with
// Versions is a snapshot one on every engine that has versions; a Mutex
// System's takes no lock. Every exit — commit, user abort, fallback, and a
// panicking fn — clears the slot's roActive bit. A fallback is no conflict:
// it counts in ROFallbacks only, and its retry has the kind of a retry that
// did not fail validation.
func TestROSnapshotKindLifecycle(t *testing.T) {
	for _, algo := range mvAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo, func(c *Config) { c.Versions = 2 })
			th, other := s.MustRegister(), s.MustRegister()
			defer other.Close()
			defer th.Close()
			x := NewVar(0)
			var want Stats
			exit := func(what string, fn func(tx *Tx) error) error {
				t.Helper()
				defer func() {
					if s.roActive.has(th.idx) {
						t.Errorf("%s: roActive bit still set", what)
					}
					st := th.Stats()
					if st.ROCommits != want.ROCommits || st.ROFallbacks != want.ROFallbacks || st.Aborts != 0 ||
						st.AbortReasons[AbortExplicit] != want.AbortReasons[AbortExplicit] {
						t.Errorf("%s: ROCommits %d ROFallbacks %d Aborts %d explicit %d, want %d %d 0 %d", what,
							st.ROCommits, st.ROFallbacks, st.Aborts, st.AbortReasons[AbortExplicit],
							want.ROCommits, want.ROFallbacks, want.AbortReasons[AbortExplicit])
					}
				}()
				return th.AtomicallyRO(func(tx *Tx) error {
					if tx.Attempt() == 1 {
						if tx.kind != kindSnapshot || !s.roActive.has(th.idx) {
							t.Errorf("%s: first attempt kind %v, roActive %v; want a snapshot attempt with the bit set",
								what, tx.kind, s.roActive.has(th.idx))
						}
						if algo == Mutex {
							if !s.mu.TryLock() {
								t.Errorf("%s: the snapshot attempt holds the Mutex System's lock", what)
							} else {
								s.mu.Unlock()
							}
						}
					}
					return fn(tx)
				})
			}

			want.ROCommits++
			if err := exit("commit", func(tx *Tx) error { tx.Load(x); return nil }); err != nil {
				t.Fatal(err)
			}

			userAbort := errors.New("user abort")
			want.AbortReasons[AbortExplicit]++
			if err := exit("user abort", func(tx *Tx) error { return userAbort }); err != userAbort {
				t.Fatalf("user abort returned %v", err)
			}

			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("recovered %v, want the body's panic", r)
					}
				}()
				_ = exit("panic", func(tx *Tx) error { panic("boom") })
			}()

			// A non-validation retry's kind, asked of the rule with both
			// Threads registered.
			retryKind := s.attemptKind(&Tx{snap: make([]uint64, s.cfg.Shards)}, false)
			want.ROFallbacks++ // and no ROCommits: the retry commits on the regular path
			if err := exit("fallback", func(tx *Tx) error {
				if tx.kind == kindSnapshot {
					for i := 0; i < 3; i++ { // lap x's two-version history
						if err := other.Atomically(func(tx *Tx) error {
							tx.Store(x, i+1)
							return nil
						}); err != nil {
							t.Fatal(err)
						}
					}
					tx.Load(x)
					t.Fatal("a lapped snapshot read returned")
				}
				if tx.kind != retryKind || s.roActive.has(th.idx) {
					t.Errorf("fallback attempt kind %v, roActive %v; want %v and the bit clear",
						tx.kind, s.roActive.has(th.idx), retryKind)
				}
				if got := tx.Load(x).(int); got != 3 {
					t.Errorf("fallback attempt read %d, want 3", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestROUnstableCutTakesRegularRule: a snapshot attempt whose cut does not
// stabilize (a stream held odd past the capture's budget) counts one fallback,
// clears its roActive bit and runs as a regular attempt of the same number.
func TestROUnstableCutTakesRegularRule(t *testing.T) {
	s := newSys(t, RInvalV1, func(c *Config) { c.Versions = 2; c.Shards = 2 })
	th := s.MustRegister()
	defer th.Close()
	x := NewVar(0)
	for s.VarShard(x) != 0 {
		x = NewVar(0)
	}
	s.streams[1].ts.Add(1) // a commit holding stream 1 throughout
	err := th.AtomicallyRO(func(tx *Tx) error {
		if tx.kind == kindSnapshot || tx.Attempt() != 1 || s.roActive.has(th.idx) {
			t.Errorf("attempt %d kind %v, roActive %v; want attempt 1 on the regular rule, bit clear",
				tx.Attempt(), tx.kind, s.roActive.has(th.idx))
		}
		tx.Load(x)
		return nil
	})
	s.streams[1].ts.Add(1)
	if err != nil {
		t.Fatal(err)
	}
	if st := th.Stats(); st.ROFallbacks != 1 || st.ROCommits != 0 || st.Aborts != 0 || st.Commits != 1 {
		t.Errorf("stats %+v: want ROFallbacks 1, ROCommits 0, Aborts 0, Commits 1", st)
	}
}

// TestROTornPairProperty is the snapshot-consistency property test: writers
// keep pairs of Vars balanced (a+b == 0) in single atomic commits while
// snapshot readers stream through them; a reader observing a torn pair means
// the epoch-vector resolve produced an inconsistent cut. Attribution is on so
// the test can also assert the taxonomy invariant: a reader that never fell
// back takes zero aborts and owns zero read-victim matrix cells.
func TestROTornPairProperty(t *testing.T) {
	for _, algo := range []Algo{NOrec, InvalSTM, RInvalV2} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			const pairs, writers, readers, iters = 16, 3, 3, 300
			s := newSys(t, algo, func(c *Config) {
				c.Versions = 8
				c.Stats = true
				c.Attribution = true
			})
			as, bs := make([]*Var, pairs), make([]*Var, pairs)
			for i := range as {
				as[i], bs[i] = NewVar(0), NewVar(0)
			}
			var torn atomic.Int64
			var wg sync.WaitGroup
			// Register every thread before starting any: a reader registered
			// late can land in the slot a finished writer just freed, and the
			// matrix check below is by slot index.
			ths := make([]*Thread, writers+readers)
			for i := range ths {
				ths[i] = s.MustRegister()
			}
			for w := 0; w < writers; w++ {
				w, th := w, ths[w]
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer th.Close()
					rng := uint64(w + 1)
					for i := 0; i < iters; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						p := int(rng>>33) % pairs
						d := int(rng>>20)%7 + 1
						if err := th.Atomically(func(tx *Tx) error {
							tx.Store(as[p], tx.Load(as[p]).(int)+d)
							tx.Store(bs[p], tx.Load(bs[p]).(int)-d)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			// snapshotOnly[slot] is set for a reader that never fell back to
			// the regular path: only those are abort-free by construction (a
			// lapped reader's fallback attempt can be doomed like any other).
			snapshotOnly := make([]bool, s.cfg.MaxThreads)
			for r := 0; r < readers; r++ {
				r, th := r, ths[writers+r]
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer th.Close()
					rng := uint64(1000 + r)
					for i := 0; i < iters; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						p := int(rng>>33) % pairs
						if err := th.AtomicallyRO(func(tx *Tx) error {
							if sum := tx.Load(as[p]).(int) + tx.Load(bs[p]).(int); sum != 0 {
								torn.Add(1)
							}
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
					st := th.Stats()
					snapshotOnly[th.ID()] = st.ROFallbacks == 0
					if st.ROFallbacks == 0 && st.Aborts != 0 {
						t.Errorf("reader thread aborted %d times without a fallback (snapshot readers are abort-free)", st.Aborts)
					}
				}()
			}
			wg.Wait()
			if n := torn.Load(); n != 0 {
				t.Fatalf("%d torn pairs observed", n)
			}
			rep := s.ConflictReport()
			for c, row := range rep.Matrix {
				for victim, n := range row {
					if n != 0 && snapshotOnly[victim] {
						t.Errorf("matrix[%d][%d] = %d: snapshot reader appears as invalidation victim", c, victim, n)
					}
				}
			}
			if rep.ROCommits == 0 {
				t.Error("no snapshot commits recorded")
			}
		})
	}
}

// TestROChurnLapFallback hammers a tiny Var set through a minimum-depth ring
// so writers lap readers: lapped snapshot reads must fall back (counted, not
// wrong) and the pair invariant must survive the mixed snapshot/regular
// traffic. Primarily a -race exercise of the ring's reader/writer protocol.
func TestROChurnLapFallback(t *testing.T) {
	const iters = 400
	s := newSys(t, InvalSTM, func(c *Config) { c.Versions = 2; c.Stats = true })
	a, b := NewVar(0), NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.MustRegister()
			defer th.Close()
			for i := 0; i < iters; i++ {
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(a, tx.Load(a).(int)+w+1)
					tx.Store(b, tx.Load(b).(int)-w-1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var fallbacks uint64
	var mu sync.Mutex
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.MustRegister()
			defer th.Close()
			for i := 0; i < iters; i++ {
				if err := th.AtomicallyRO(func(tx *Tx) error {
					if sum := tx.Load(a).(int) + tx.Load(b).(int); sum != 0 {
						t.Errorf("torn pair: sum %d", sum)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
			st := th.Stats()
			mu.Lock()
			fallbacks += st.ROFallbacks
			mu.Unlock()
			if st.ROCommits+st.ROFallbacks == 0 {
				t.Error("reader ran no snapshot attempts")
			}
		}()
	}
	wg.Wait()
	t.Logf("lap fallbacks: %d", fallbacks)
}

// TestROCrossShardSnapshot checks the S>1 epoch-vector rule: a pair of Vars
// living in different commit streams is updated atomically through the
// cross-shard handshake while snapshot readers capture per-shard epoch
// vectors; a torn read would mean captureSnapshot accepted a cut that splits
// a cross-shard commit.
func TestROCrossShardSnapshot(t *testing.T) {
	const iters = 300
	s := newSys(t, RInvalV2, func(c *Config) {
		c.Shards = 4
		c.InvalServers = 4
		c.Versions = 8
		c.Stats = true
	})
	// Find two Vars owned by different shards.
	a := NewVar(0)
	b := NewVar(0)
	for s.VarShard(a) == s.VarShard(b) {
		b = NewVar(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.MustRegister()
			defer th.Close()
			for i := 0; i < iters; i++ {
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(a, tx.Load(a).(int)+w+1)
					tx.Store(b, tx.Load(b).(int)-w-1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.MustRegister()
			defer th.Close()
			for i := 0; i < iters; i++ {
				if err := th.AtomicallyRO(func(tx *Tx) error {
					if sum := tx.Load(a).(int) + tx.Load(b).(int); sum != 0 {
						t.Errorf("cross-shard torn pair: sum %d", sum)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
			// A snapshot transaction never aborts. A reader whose epoch-vector
			// capture gave up (the writers kept some stream odd through the
			// retry budget) re-ran that transaction on the regular path, where
			// aborts are legal — so the zero holds only without fallbacks.
			st := th.Stats()
			if st.ROFallbacks == 0 && st.Aborts != 0 {
				t.Errorf("cross-shard snapshot reader aborted %d times", st.Aborts)
			}
			if st.ROFallbacks != 0 {
				t.Logf("reader fell back %d times (%d aborts on the regular path)", st.ROFallbacks, st.Aborts)
			}
		}()
	}
	wg.Wait()
}

// TestROVersionsZeroDifferential runs one deterministic mixed trace (updates
// interleaved with AtomicallyRO reads) under Versions=0 and Versions=8:
// final state and read observations must be bit-identical, and under
// Versions=0 AtomicallyRO must degrade to the regular path exactly — no
// snapshot commits, no fallbacks, ReadOnly still counted.
func TestROVersionsZeroDifferential(t *testing.T) {
	for _, algo := range mvAlgos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			const nvars, ops = 8, 400
			run := func(versions int) ([nvars]int, []int, Stats) {
				s := MustNew(Config{Algo: algo, MaxThreads: 4, InvalServers: 1, Versions: versions, Stats: true})
				defer s.Close()
				th := s.MustRegister()
				vars := make([]*Var, nvars)
				for i := range vars {
					vars[i] = NewVar(i)
				}
				var seen []int
				rng := uint64(7)
				next := func() uint64 {
					rng = rng*6364136223846793005 + 1442695040888963407
					return rng >> 16
				}
				for op := 0; op < ops; op++ {
					i, j := int(next())%nvars, int(next())%nvars
					if op%3 == 0 {
						_ = th.AtomicallyRO(func(tx *Tx) error {
							seen = append(seen, tx.Load(vars[i]).(int)+tx.Load(vars[j]).(int))
							return nil
						})
					} else {
						_ = th.Atomically(func(tx *Tx) error {
							tx.Store(vars[i], tx.Load(vars[j]).(int)+1)
							return nil
						})
					}
				}
				var out [nvars]int
				for i, v := range vars {
					out[i] = v.Peek().(int)
				}
				st := th.Stats()
				th.Close()
				return out, seen, st
			}
			s0, seen0, st0 := run(0)
			s8, seen8, st8 := run(8)
			if s0 != s8 {
				t.Errorf("final state diverged:\n V=0 %v\n V=8 %v", s0, s8)
			}
			for i := range seen0 {
				if seen0[i] != seen8[i] {
					t.Errorf("read %d diverged: V=0 saw %d, V=8 saw %d", i, seen0[i], seen8[i])
					break
				}
			}
			if st0.ROCommits != 0 || st0.ROFallbacks != 0 {
				t.Errorf("Versions=0 took the snapshot path: %+v", st0)
			}
			if st0.ReadOnly == 0 || st0.ReadOnly != st8.ReadOnly {
				t.Errorf("ReadOnly accounting diverged: V=0 %d, V=8 %d", st0.ReadOnly, st8.ReadOnly)
			}
			if st8.ROCommits == 0 {
				t.Errorf("Versions=8 never used the snapshot path: %+v", st8)
			}
			if st0.Commits != st8.Commits {
				t.Errorf("commits diverged: V=0 %d, V=8 %d", st0.Commits, st8.Commits)
			}
		})
	}
}
