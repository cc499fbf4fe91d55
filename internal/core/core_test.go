package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/bloom"
)

// forEachAlgo runs f once per engine, in a subtest named after the engine,
// then once more for RInval-V2 and V3 with the paper's server layout
// ("rinval-v2/4p", "rinval-v3/4p"): there newSys builds at four Ps
// (atFourPs), so descriptors, partitions and the readers' catch-up stay
// covered on a host with fewer, where those engines have no partitions.
func forEachAlgo(t *testing.T, f func(t *testing.T, algo Algo)) {
	t.Helper()
	for _, a := range Algos {
		a := a
		t.Run(a.String(), func(t *testing.T) { f(t, a) })
	}
	for _, a := range []Algo{RInvalV2, RInvalV3} {
		t.Run(a.String()+"/4p", func(t *testing.T) {
			sysAtFourPs = true
			defer func() { sysAtFourPs = false }()
			f(t, a)
		})
	}
}

// sysAtFourPs is set for the body of forEachAlgo's "/4p" subtests: newSys
// then builds its System with atFourPs.
var sysAtFourPs bool

// newSys builds a small system for tests and registers cleanup.
func newSys(t *testing.T, algo Algo, mutate func(*Config)) *System {
	t.Helper()
	cfg := Config{Algo: algo, MaxThreads: 16, InvalServers: 2, StepsAhead: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	var s *System
	if sysAtFourPs {
		s = atFourPs(t, New, cfg)
	} else {
		var err error
		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// newServerSys is newSys with an RInval System built at four Ps, for tests of
// what only RInval's servers do: below four Ps none runs.
func newServerSys(t *testing.T, algo Algo, mutate func(*Config)) *System {
	t.Helper()
	if algo == RInvalV1 || algo == RInvalV2 || algo == RInvalV3 {
		prev := sysAtFourPs
		sysAtFourPs = true
		defer func() { sysAtFourPs = prev }()
	}
	return newSys(t, algo, mutate)
}

// atFourPs builds a System with build (New, or newSystem to start no server)
// at GOMAXPROCS 4 and restores the old value right after: the paper's server
// layout on any host. RInval-V2/V3 get InvalServers/Shards partitions per
// stream, an invalidation-server each once started and V3 its step-ahead
// window, while the test itself runs on the host's Ps.
func atFourPs(t testing.TB, build func(Config) (*System, error), cfg Config) *System {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	s, err := build(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAlgoStringRoundTrip(t *testing.T) {
	for _, a := range Algos {
		got, err := ParseAlgo(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgo(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgo("nope"); err == nil {
		t.Error("ParseAlgo accepted garbage")
	}
	if s := Algo(99).String(); s != "Algo(99)" {
		t.Errorf("unknown algo string %q", s)
	}
}

// TestConfigFieldCount pins the knob count: every field doubles the
// configurations tests and benchmarks must cover, so a new one is a deliberate
// diff here too.
func TestConfigFieldCount(t *testing.T) {
	n := reflect.TypeOf(Config{}).NumField()
	if n != 21 {
		t.Fatalf("Config has %d fields, want 21", n)
	}
	t.Logf("Config fields: %d", n) // read by `make size`
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Every default a field's doc states.
	if c.Algo != Mutex || c.MaxThreads != 64 || c.InvalServers != 4 || c.StepsAhead != 2 ||
		c.MaxBatch != 8 || c.Shards != 1 || c.Bloom != bloom.DefaultParams || c.Seed != 1 {
		t.Fatalf("bad defaults: %+v", c)
	}
	if c.AttrSampleEvery != 8 || c.LatencySampleEvery != 64 || c.TraceEvents != 4096 ||
		c.FlightDir != "flight" || c.TimeSeries != 0 || c.TimeSeriesInterval != 0 || c.Latency {
		t.Fatalf("bad defaults: %+v", c)
	}
	ts, err := Config{TimeSeries: 10}.withDefaults()
	if err != nil || ts.TimeSeriesInterval != time.Second || !ts.Latency {
		t.Fatalf("TimeSeries defaults: %+v, %v", ts, err)
	}
	fr, err := Config{FlightRecorder: true}.withDefaults()
	if err != nil || fr.TimeSeries != 600 || !fr.Latency {
		t.Fatalf("FlightRecorder defaults: %+v, %v", fr, err)
	}
	bad := []Config{
		{MaxThreads: -1},
		{MaxThreads: 5000},
		{InvalServers: 100, MaxThreads: 8},
		{StepsAhead: 200},
		{Algo: Algo(42)},
		{Bloom: bloom.Params{Bits: 100, Hashes: 2}},  // not a power of two
		{Bloom: bloom.Params{Bits: 1024, Hashes: 9}}, // k bits must fit one word
		{Bloom: bloom.Params{Bits: 1024}},            // Hashes unset
	}
	for _, b := range bad {
		if _, err := b.withDefaults(); err == nil {
			t.Errorf("config %+v accepted", b)
		}
		// New must return the error, not panic inside a constructor.
		if s, err := New(b); err == nil {
			s.Close()
			t.Errorf("New(%+v) succeeded", b)
		}
	}
	// An unset InvalServers clamps to small MaxThreads instead of erroring.
	small, err := Config{MaxThreads: 2}.withDefaults()
	if err != nil || small.InvalServers != 2 {
		t.Fatalf("small-system default: %+v, %v", small, err)
	}
}

func TestSingleThreadReadWrite(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		th := s.MustRegister()
		defer th.Close()
		x := NewVar(10)
		y := NewVar("hello")

		err := th.Atomically(func(tx *Tx) error {
			if got := tx.Load(x).(int); got != 10 {
				t.Errorf("Load(x) = %d", got)
			}
			tx.Store(x, 11)
			if got := tx.Load(x).(int); got != 11 {
				t.Errorf("read-after-write = %d", got)
			}
			tx.Store(y, "world")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if x.Peek().(int) != 11 || y.Peek().(string) != "world" {
			t.Fatalf("commit not published: x=%v y=%v", x.Peek(), y.Peek())
		}
	})
}

func TestUserAbortRollsBack(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		th := s.MustRegister()
		defer th.Close()
		x := NewVar(1)
		boom := errors.New("boom")
		err := th.Atomically(func(tx *Tx) error {
			tx.Store(x, 99)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		if x.Peek().(int) != 1 {
			t.Fatalf("user abort leaked write: %v", x.Peek())
		}
		// System must remain usable (in particular the Mutex engine must
		// have released its lock).
		if err := th.Atomically(func(tx *Tx) error { tx.Store(x, 2); return nil }); err != nil {
			t.Fatal(err)
		}
		if x.Peek().(int) != 2 {
			t.Fatal("post-abort commit failed")
		}
	})
}

func TestUserPanicPropagatesAndReleases(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		th := s.MustRegister()
		defer th.Close()
		x := NewVar(1)
		func() {
			defer func() {
				if r := recover(); r == nil || r.(string) != "user panic" {
					t.Errorf("recover = %v", r)
				}
			}()
			_ = th.Atomically(func(tx *Tx) error {
				tx.Store(x, 5)
				panic("user panic")
			})
		}()
		if x.Peek().(int) != 1 {
			t.Fatal("panicking tx leaked write")
		}
		if err := th.Atomically(func(tx *Tx) error { tx.Store(x, 3); return nil }); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReadOnlyTransaction(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		th := s.MustRegister()
		defer th.Close()
		x := NewVar(7)
		var got int
		if err := th.Atomically(func(tx *Tx) error {
			got = tx.Load(x).(int)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != 7 {
			t.Fatalf("got %d", got)
		}
		st := th.Stats()
		if st.Commits != 1 || st.ReadOnly != 1 {
			t.Fatalf("stats %+v", st)
		}
	})
}

func TestConcurrentCounter(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		counter := NewVar(0)
		const workers = 8
		const perWorker = 200
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				for i := 0; i < perWorker; i++ {
					err := th.Atomically(func(tx *Tx) error {
						tx.Store(counter, tx.Load(counter).(int)+1)
						return nil
					})
					if err != nil {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := counter.Peek().(int); got != workers*perWorker {
			t.Fatalf("lost updates: %d != %d", got, workers*perWorker)
		}
		st := s.Stats()
		if st.Commits < workers*perWorker {
			t.Fatalf("commit count %d too low", st.Commits)
		}
	})
}

// TestWriteSkewPrevented: classic write-skew anomaly must not occur. Two
// transactions each read the other's variable and write their own; any
// serial order leaves at least one variable at its written value consistent
// with the reads. The illegal outcome under snapshot-but-not-serializable
// systems is both writes succeeding from stale reads: x = y = 1 when the
// rule is "write 1 only if the other is 0" starting from x=y=0 would allow
// x+y<=1 under serializability.
func TestWriteSkewPrevented(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		for round := 0; round < 50; round++ {
			s := newSys(t, algo, nil)
			x, y := NewVar(0), NewVar(0)
			var wg sync.WaitGroup
			run := func(read, write *Var) {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				_ = th.Atomically(func(tx *Tx) error {
					if tx.Load(read).(int) == 0 {
						tx.Store(write, 1)
					}
					return nil
				})
			}
			wg.Add(2)
			go run(x, y)
			go run(y, x)
			wg.Wait()
			if x.Peek().(int)+y.Peek().(int) > 1 {
				t.Fatalf("write skew: x=%v y=%v", x.Peek(), y.Peek())
			}
			// newSys registered Close via t.Cleanup; rounds accumulate,
			// which is fine for 50 small systems.
		}
	})
}

func TestStatsCountsAborts(t *testing.T) {
	// Force conflicts: many threads increment one counter; at least some
	// engines must record aborts under this contention (Mutex never aborts).
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		counter := NewVar(0)
		const workers, per = 6, 150
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				for i := 0; i < per; i++ {
					_ = th.Atomically(func(tx *Tx) error {
						tx.Store(counter, tx.Load(counter).(int)+1)
						return nil
					})
				}
			}()
		}
		wg.Wait()
		st := s.Stats()
		if st.Commits != workers*per {
			t.Fatalf("commits %d != %d", st.Commits, workers*per)
		}
		if algo == Mutex && st.Aborts != 0 {
			t.Fatalf("mutex engine aborted %d times", st.Aborts)
		}
		if counter.Peek().(int) != workers*per {
			t.Fatal("final value wrong")
		}
	})
}

// TestReadsWritesFoldAtEveryExit: Load and Store count into plain per-attempt
// fields, so every way out of an attempt must fold them into the thread's
// Stats. The body counts the calls it issues (an aborting Load included);
// after each exit Stats.Reads/Writes must have grown by exactly that.
func TestReadsWritesFoldAtEveryExit(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, func(c *Config) {
			if algo != TL2 {
				c.Versions = 2
			}
		})
		th, other := s.MustRegister(), s.MustRegister()
		defer th.Close()
		defer other.Close()
		x, y := NewVar(0), NewVar(0)

		var loads, stores uint64 // issued by th's bodies since the last check
		load := func(tx *Tx, v *Var) int { loads++; return tx.Load(v).(int) }
		store := func(tx *Tx, v *Var, n int) { stores++; tx.Store(v, n) }
		var last Stats
		check := func(exit string) Stats {
			t.Helper()
			st := th.Stats()
			if r, w := st.Reads-last.Reads, st.Writes-last.Writes; r != loads || w != stores {
				t.Fatalf("%s: Stats grew by %d reads / %d writes, body issued %d / %d", exit, r, w, loads, stores)
			}
			loads, stores = 0, 0
			last = st
			return st
		}
		bump := func(v *Var) { // a commit by another thread
			if err := other.Atomically(func(tx *Tx) error {
				tx.Store(v, tx.Load(v).(int)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}

		if err := th.Atomically(func(tx *Tx) error {
			store(tx, x, load(tx, x)+load(tx, y))
			store(tx, y, load(tx, x))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("commit")

		errUser := errors.New("user abort")
		if err := th.Atomically(func(tx *Tx) error {
			store(tx, x, load(tx, x)+load(tx, y))
			return errUser
		}); err != errUser {
			t.Fatalf("user abort returned %v", err)
		}
		check("user abort")

		func() {
			defer func() { _ = recover() }()
			_ = th.Atomically(func(tx *Tx) error {
				store(tx, y, load(tx, x))
				panic("body panic")
			})
		}()
		check("panic")

		if algo != Mutex { // Mutex holds the global lock: no conflicts, and bump would deadlock
			if err := th.Atomically(func(tx *Tx) error {
				if tx.Attempt() > 1 {
					// Folded by the abort itself, not carried into the retry.
					check("conflict abort")
				}
				n := load(tx, x)
				if tx.Attempt() == 1 {
					bump(x) // dooms/invalidates this attempt's read of x
				}
				store(tx, x, n+load(tx, y))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if st := check("commit after retry"); st.Aborts == 0 {
				t.Fatal("the conflicting commit aborted nothing")
			}
		}

		if algo == TL2 {
			return // no Versions, no snapshot path
		}
		if err := th.AtomicallyRO(func(tx *Tx) error {
			load(tx, x)
			load(tx, y)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if st := check("snapshot commit"); st.ROCommits != 1 {
			t.Fatalf("ROCommits = %d, want 1", st.ROCommits)
		}

		func() {
			defer func() { _ = recover() }()
			_ = th.AtomicallyRO(func(tx *Tx) error {
				load(tx, x)
				panic("body panic")
			})
		}()
		check("snapshot panic")

		if err := th.AtomicallyRO(func(tx *Tx) error {
			load(tx, x)
			if tx.Attempt() == 1 {
				for i := 0; i < 4; i++ {
					bump(y) // lap y's two-entry ring under the snapshot
				}
			}
			load(tx, y)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if st := check("snapshot fallback"); st.ROFallbacks != 1 {
			t.Fatalf("ROFallbacks = %d, want 1", st.ROFallbacks)
		}
	})
}

func TestManyVarsDisjointWriters(t *testing.T) {
	// Disjoint writers should all commit; verifies invalidation does not
	// doom non-conflicting transactions (modulo bloom false positives, which
	// only cause retries).
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		const workers, per = 8, 100
		vars := make([]*Var, workers)
		for i := range vars {
			vars[i] = NewVar(0)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				for i := 0; i < per; i++ {
					_ = th.Atomically(func(tx *Tx) error {
						tx.Store(vars[w], tx.Load(vars[w]).(int)+1)
						return nil
					})
				}
			}()
		}
		wg.Wait()
		for i, v := range vars {
			if v.Peek().(int) != per {
				t.Fatalf("var %d = %v, want %d", i, v.Peek(), per)
			}
		}
	})
}

func TestLargeWriteSetUsesMapPath(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		th := s.MustRegister()
		defer th.Close()
		const n = wsetMapThreshold * 3
		vars := make([]*Var, n)
		for i := range vars {
			vars[i] = NewVar(0)
		}
		if err := th.Atomically(func(tx *Tx) error {
			for i, v := range vars {
				tx.Store(v, i)
			}
			// Overwrite half, exercising map-path replacement.
			for i := 0; i < n/2; i++ {
				tx.Store(vars[i], i*10)
			}
			// Read-after-write through the map path.
			for i := 0; i < n/2; i++ {
				if got := tx.Load(vars[i]).(int); got != i*10 {
					return fmt.Errorf("RAW got %d want %d", got, i*10)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n/2; i++ {
			if vars[i].Peek().(int) != i*10 {
				t.Fatalf("var %d = %v", i, vars[i].Peek())
			}
		}
		for i := n / 2; i < n; i++ {
			if vars[i].Peek().(int) != i {
				t.Fatalf("var %d = %v", i, vars[i].Peek())
			}
		}
	})
}

func TestTinyBloomStillCorrect(t *testing.T) {
	// A 64-bit filter over many vars produces heavy false conflicts; the
	// system must stay correct (only slower).
	for _, algo := range []Algo{InvalSTM, RInvalV1, RInvalV2, RInvalV3} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo, func(c *Config) {
				c.Bloom = bloom.Params{Bits: 64, Hashes: 1}
			})
			vars := make([]*Var, 32)
			for i := range vars {
				vars[i] = NewVar(0)
			}
			const workers, per = 4, 50
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < per; i++ {
						v := vars[(w*per+i)%len(vars)]
						_ = th.Atomically(func(tx *Tx) error {
							tx.Store(v, tx.Load(v).(int)+1)
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
			if total != workers*per {
				t.Fatalf("total %d != %d", total, workers*per)
			}
		})
	}
}

func TestVarPeekSet(t *testing.T) {
	v := NewVar(3)
	if v.Peek().(int) != 3 {
		t.Fatal("Peek")
	}
	v.Set(4)
	if v.Peek().(int) != 4 {
		t.Fatal("Set")
	}
	if v.ID() == 0 {
		t.Fatal("ID should be nonzero")
	}
	w := NewVar(0)
	if w.ID() == v.ID() {
		t.Fatal("IDs must be unique")
	}
}

func TestAttemptCounter(t *testing.T) {
	s := newSys(t, NOrec, nil)
	th := s.MustRegister()
	defer th.Close()
	x := NewVar(0)
	attempts := 0
	if err := th.Atomically(func(tx *Tx) error {
		attempts = tx.Attempt()
		_ = tx.Load(x)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("first attempt numbered %d", attempts)
	}
	if th.tx.System() != s {
		t.Fatal("System accessor broken")
	}
}

// TestDirectKindReleasesLock: a direct attempt takes the Mutex System's lock
// in Tx.begin, and Thread.endTx releases it on every way out of the call — a
// commit, a user abort, a panic in fn, and, with Versions, an AtomicallyRO
// call whose snapshot attempt fell back to a direct one.
func TestDirectKindReleasesLock(t *testing.T) {
	s := newSys(t, Mutex, func(c *Config) { c.Versions = 2 })
	th, other := s.MustRegister(), s.MustRegister()
	defer other.Close()
	defer th.Close()
	x := NewVar(0)
	released := func(what string) {
		t.Helper()
		if !s.mu.TryLock() {
			t.Fatalf("%s: the lock is still held", what)
		}
		s.mu.Unlock()
	}

	if err := th.Atomically(func(tx *Tx) error {
		if tx.kind != kindDirect {
			t.Errorf("a Mutex attempt is %v, want direct", tx.kind)
		}
		tx.Store(x, tx.Load(x).(int)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	released("commit")

	userAbort := errors.New("user abort")
	if err := th.Atomically(func(tx *Tx) error {
		tx.Store(x, 10)
		return userAbort
	}); err != userAbort {
		t.Fatalf("user abort returned %v", err)
	}
	released("user abort")

	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the body's panic", r)
			}
		}()
		_ = th.Atomically(func(tx *Tx) error { panic("boom") })
	}()
	released("panic")

	if err := th.AtomicallyRO(func(tx *Tx) error {
		if tx.kind == kindSnapshot {
			for i := 0; i < 3; i++ { // lap x's two-version history
				if err := other.Atomically(func(tx *Tx) error {
					tx.Store(x, i+2)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			tx.Load(x)
			t.Fatal("a lapped snapshot read returned")
		}
		if tx.kind != kindDirect {
			t.Errorf("the fallback attempt is %v, want direct", tx.kind)
		}
		tx.Load(x)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := th.Stats(); st.ROFallbacks != 1 {
		t.Errorf("ROFallbacks %d, want 1", st.ROFallbacks)
	}
	released("snapshot fallback")
}
