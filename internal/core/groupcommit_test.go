package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/ssrg-vt/rinval/internal/bloom"
)

// rinvalAlgos are the engines that run the commit-server protocol.
var rinvalAlgos = []Algo{RInvalV1, RInvalV2, RInvalV3}

// postPending hand-publishes a commit request writing val to v in th's slot,
// exactly as the client side of remoteEngine.commit would, so tests can
// control which requests are pending before the server runs.
func postPending(s *System, th *Thread, v *Var, val any) *slot {
	sl := th.slot
	sl.req.ws.reset(false)
	sl.req.ws.put(v, newAnyCell(val))
	beginSlot(s, th)
	sl.publish(1, 1) // single stream: shard 0
	return sl
}

// beginSlot makes th's slot an in-flight transaction as Tx.begin would: the
// active bit before the ALIVE store of a fresh epoch.
func beginSlot(s *System, th *Thread) {
	s.active.set(th.idx)
	epoch := (th.slot.status.Load() >> epochShift) + 1
	th.slot.status.Store(statusWord(epoch, txAlive))
}

// settle returns a slot to idle after a manual epoch so Close can succeed.
func settle(s *System, idx int, sl *slot) {
	sl.state.Store(sl.state.Load() &^ reqCodeMask)
	sl.status.Store(sl.status.Load() &^ statusBits)
	s.active.clear(idx)
}

// TestGroupCommitDisjointBatchOneEpoch: a batch of N disjoint writers is
// retired in exactly one timestamp epoch with N COMMITTED replies, on every
// RInval variant.
func TestGroupCommitDisjointBatchOneEpoch(t *testing.T) {
	const n = 6
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			// A wide signature keeps this test deterministic: var IDs are
			// process-global, so with the 1024-bit default a different test
			// order can produce a hash collision that spuriously splits the
			// "disjoint" batch.
			s, err := newSystem(Config{Algo: algo, MaxThreads: 8, InvalServers: 2, MaxBatch: 16,
				Bloom: bloom.Params{Bits: 1 << 16, Hashes: 2}})
			if err != nil {
				t.Fatal(err)
			}
			vars := make([]*Var, n)
			slots := make([]*slot, n)
			ths := make([]*Thread, n)
			for i := 0; i < n; i++ {
				vars[i] = NewVar(0)
				ths[i] = s.MustRegister()
				slots[i] = postPending(s, ths[i], vars[i], i+100)
			}

			eng := s.rinval
			if !eng.srv[0].serveEpoch(1, 0) {
				t.Fatal("serveEpoch made no progress")
			}
			if got := s.streams[0].ts.Load(); got != 2 {
				t.Errorf("timestamp after one batch epoch = %d, want 2", got)
			}
			srv := eng.srv[0].stats()
			if srv.Epochs != 1 {
				t.Errorf("Epochs = %d, want 1", srv.Epochs)
			}
			if srv.Commits != n {
				t.Errorf("server Commits = %d, want %d", srv.Commits, n)
			}
			if got := srv.BatchSizes; got.Max() != n {
				t.Errorf("recorded batch size = %d, want %d", got.Max(), n)
			}
			if srv.Epochs != srv.BatchSizes.Count() || srv.Commits != srv.BatchSizes.Sum() {
				t.Errorf("Epochs/Commits = %d/%d, batch sizes count/sum = %d/%d, want equal",
					srv.Epochs, srv.Commits, srv.BatchSizes.Count(), srv.BatchSizes.Sum())
			}
			for i := 0; i < n; i++ {
				if st := slots[i].state.Load() & reqCodeMask; st != reqCommitted {
					t.Errorf("slot %d reply = %d, want reqCommitted", i, st)
				}
				if got := vars[i].Peek(); got != i+100 {
					t.Errorf("vars[%d] = %v, want %d", i, got, i+100)
				}
				settle(s, ths[i].idx, slots[i])
				ths[i].Close()
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGroupCommitConflictSplitsEpochs: W/W and R/W overlaps keep requests
// out of the same epoch; the excluded request stays PENDING and commits in
// the next epoch. V1 and V3 are exercised; V3 with its partition held, as by
// an invalidation-server in mid-scan, so the follower is also deferred for lag
// (V2 would wait out the holder in its catch-up stage instead).
func TestGroupCommitConflictSplitsEpochs(t *testing.T) {
	for _, algo := range []Algo{RInvalV1, RInvalV3} {
		for _, kind := range []string{"ww", "follower-reads-leader-write", "leader-read-follower-write"} {
			t.Run(fmt.Sprintf("%s/%s", algo, kind), func(t *testing.T) {
				s := atFourPs(t, newSystem, Config{Algo: algo, MaxThreads: 4, InvalServers: 1, StepsAhead: 2, MaxBatch: 16})
				a, b := NewVar(0), NewVar(0)
				th0, th1 := s.MustRegister(), s.MustRegister()

				var sl0, sl1 *slot
				switch kind {
				case "ww":
					sl0 = postPending(s, th0, a, 1)
					sl1 = postPending(s, th1, a, 2)
				case "follower-reads-leader-write":
					sl0 = postPending(s, th0, a, 1)
					sl1 = postPending(s, th1, b, 2)
					sl1.readBF.Add(a.id) // follower read what the leader writes
				case "leader-read-follower-write":
					sl0 = postPending(s, th0, a, 1)
					sl0.readBF.Add(b.id) // leader read what the follower writes
					sl1 = postPending(s, th1, b, 2)
				}

				eng := s.rinval
				if algo == RInvalV3 && !s.tryLockPartition(0, 0) {
					t.Fatal("fresh partition lock not free")
				}
				if !eng.srv[0].serveEpoch(1, 0) {
					t.Fatal("first epoch made no progress")
				}
				if sl0.state.Load()&reqCodeMask != reqCommitted {
					t.Fatal("leader not committed in first epoch")
				}
				if sl1.state.Load()&reqCodeMask != reqPending {
					t.Fatal("conflicting follower should have stayed pending")
				}
				if srv := eng.srv[0].stats(); srv.Epochs != 1 || srv.Commits != 1 {
					t.Fatalf("after first epoch: Epochs=%d Commits=%d, want 1/1", srv.Epochs, srv.Commits)
				}

				// A follower that read what the leader wrote is a real
				// conflict: the leader's epoch dooms it, and its own epoch
				// answers ABORTED. The other exclusions are batching-only
				// conflicts and the follower commits next.
				wantFollower := reqCommitted
				if kind == "follower-reads-leader-write" {
					wantFollower = reqAborted
				}
				if algo == RInvalV1 {
					// The follower leads its own epoch once the scan returns.
					if !eng.srv[0].serveEpoch(1, 0) {
						t.Fatal("second epoch made no progress")
					}
					if got := sl1.state.Load() & reqCodeMask; got != wantFollower {
						t.Fatalf("follower reply = %d, want %d", got, wantFollower)
					}
					wantEpochs := uint64(2)
					if wantFollower == reqAborted {
						wantEpochs = 1 // aborts do not burn a timestamp epoch
					}
					if got := eng.srv[0].stats().Epochs; got != wantEpochs {
						t.Errorf("Epochs = %d, want %d", got, wantEpochs)
					}
				} else {
					// V3 with the partition held: the first epoch's driver
					// left its descriptor to the holder, invalTS lags the new
					// timestamp, so the follower is deferred — the documented
					// step-ahead behavior.
					if eng.srv[0].serveEpoch(1, 0) {
						t.Fatal("V3 should defer the follower while its partition is being scanned")
					}
					if sl1.state.Load()&reqCodeMask != reqPending {
						t.Fatal("deferred follower must stay pending")
					}
					// The holder lets go and the invalidation-server takes its
					// next turn; the follower's request is then served
					// (committed, or aborted when the scan doomed it).
					s.unlockPartition(0, 0)
					if !serverTurn(eng.srv[0], 0) {
						t.Fatal("free lagging partition not scanned")
					}
					if !eng.srv[0].serveEpoch(1, 0) {
						t.Fatal("follower epoch made no progress after catch-up")
					}
					if got := sl1.state.Load() & reqCodeMask; got != wantFollower {
						t.Fatalf("follower reply = %d, want %d", got, wantFollower)
					}
				}

				settle(s, th0.idx, sl0)
				settle(s, th1.idx, sl1)
				th0.Close()
				th1.Close()
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestGroupCommitThirdCandidateMeetsUnions: the unions are built only when a
// second candidate turns up, and must then hold every member — a third request
// that conflicts with the second member alone stays out of the epoch, and the
// signature the epoch publishes covers both members.
func TestGroupCommitThirdCandidateMeetsUnions(t *testing.T) {
	s := atFourPs(t, newSystem, Config{Algo: RInvalV2, MaxThreads: 4, InvalServers: 1, MaxBatch: 16,
		Bloom: bloom.Params{Bits: 1 << 16, Hashes: 2}})
	a, b := NewVar(0), NewVar(0)
	ths := []*Thread{s.MustRegister(), s.MustRegister(), s.MustRegister()}
	slots := []*slot{postPending(s, ths[0], a, 1), postPending(s, ths[1], b, 2), postPending(s, ths[2], b, 3)}

	if !s.rinval.srv[0].serveEpoch(1, 0) {
		t.Fatal("epoch made no progress")
	}
	for i, want := range []uint64{reqCommitted, reqCommitted, reqPending} {
		if got := slots[i].state.Load() & reqCodeMask; got != want {
			t.Errorf("slot %d state = %d, want %d", i, got, want)
		}
	}
	d := s.streams[0].ring[0].Load()
	if !d.bf.MayContain(a.id) || !d.bf.MayContain(b.id) {
		t.Error("published signature does not cover both members' writes")
	}
	has := func(i int) bool { return d.members[i>>6]&(1<<(uint(i)&63)) != 0 }
	if !has(ths[0].idx) || !has(ths[1].idx) || has(ths[2].idx) {
		t.Error("published member mask is not exactly the two committed members")
	}
	for i := range ths {
		settle(s, ths[i].idx, slots[i])
		ths[i].Close()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitMaxBatchOneRegression: with MaxBatch=1 the server never
// batches — every epoch retires exactly one request, reproducing the
// pre-group-commit protocol.
func TestGroupCommitMaxBatchOneRegression(t *testing.T) {
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := atFourPs(t, New, Config{Algo: algo, MaxThreads: 8, InvalServers: 2, MaxBatch: 1})
			const workers, iters = 4, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				v := NewVar(0)
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < iters; i++ {
						if err := th.Atomically(func(tx *Tx) error {
							tx.Store(v, i)
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
			st := s.Stats()
			if st.Epochs == 0 {
				t.Fatal("no epochs recorded")
			}
			if got := st.BatchSizes.Max(); got > 1 {
				t.Errorf("MaxBatch=1 recorded a batch of %d", got)
			}
			if st.BatchSizes.Count() != st.Epochs {
				t.Errorf("batch samples %d != epochs %d", st.BatchSizes.Count(), st.Epochs)
			}
			// One epoch per server-side commit: the disjoint workload dooms
			// nobody, so every epoch retires exactly one request.
			if st.Epochs != workers*iters {
				t.Errorf("Epochs = %d, want %d (one per commit)", st.Epochs, workers*iters)
			}
		})
	}
}

// TestGroupCommitBatchingReducesEpochs: disjoint writers under a batching
// server take at most as many epochs as commits, and the accounting is
// consistent (every epoch recorded one batch sample, samples sum to the
// commit count).
func TestGroupCommitBatchingReducesEpochs(t *testing.T) {
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := atFourPs(t, New, Config{Algo: algo, MaxThreads: 16, InvalServers: 2, MaxBatch: 16})
			const workers, iters = 8, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				v := NewVar(0)
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < iters; i++ {
						if err := th.Atomically(func(tx *Tx) error {
							tx.Store(v, i)
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
			st := s.Stats()
			if st.Epochs > workers*iters {
				t.Errorf("Epochs = %d > commits = %d", st.Epochs, workers*iters)
			}
			if st.BatchSizes.Count() != st.Epochs {
				t.Errorf("batch samples %d != epochs %d", st.BatchSizes.Count(), st.Epochs)
			}
			if got := st.BatchSizes.Sum(); got != workers*iters {
				t.Errorf("batch sample sum = %d, want %d", got, workers*iters)
			}
			t.Logf("%s: %d commits in %d epochs (mean batch %.2f)",
				algo, workers*iters, st.Epochs, st.BatchSizes.Mean())
		})
	}
}

// TestGroupCommitOpacityStress: read-modify-write increments on shared
// counters must never share an epoch (each member reads what the other
// writes), so every committed increment is preserved. A lost update here
// means two intersecting write sets were retired in one epoch.
func TestGroupCommitOpacityStress(t *testing.T) {
	counters := []int{0, 1} // two contended cells
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := atFourPs(t, New, Config{Algo: algo, MaxThreads: 8, InvalServers: 2, MaxBatch: 8})
			shared := []*Var{NewVar(0), NewVar(0)}
			const workers, iters = 4, 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				priv := NewVar(0)
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < iters; i++ {
						c := shared[(w+i)%len(counters)]
						if err := th.Atomically(func(tx *Tx) error {
							// rmw on a shared counter + a disjoint private
							// write, so batches mixing the two are possible
							// but batches mixing two rmws are not.
							tx.Store(c, tx.Load(c).(int)+1)
							tx.Store(priv, i)
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
				t.Errorf("lost updates: counters sum to %d, want %d", total, workers*iters)
			}
		})
	}
}

// TestStatsReadableWhileLive: System.Stats and Thread.Stats are safe (and
// race-clean) while threads are mid-transaction, and System.Stats reports the
// servers' counters live: Commits and Epochs never go backwards, Epochs is
// non-zero on RInval before Close, and Close adds nothing to what the last
// live read said.
func TestStatsReadableWhileLive(t *testing.T) {
	for _, algo := range []Algo{NOrec, RInvalV2} {
		t.Run(algo.String(), func(t *testing.T) {
			s := MustNew(Config{Algo: algo, MaxThreads: 8, InvalServers: 2})
			v := NewVar(0)
			const workers, iters = 3, 200
			done := make(chan struct{})
			var wg sync.WaitGroup
			ths := make([]*Thread, workers)
			for w := 0; w < workers; w++ {
				ths[w] = s.MustRegister()
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						_ = ths[w].Atomically(func(tx *Tx) error {
							tx.Store(v, tx.Load(v).(int)+1)
							return nil
						})
					}
				}()
			}
			go func() { wg.Wait(); close(done) }()
			var last Stats
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
					runtime.Gosched()
				}
				st := s.Stats()
				if st.Commits < last.Commits {
					t.Errorf("commits went backwards: %d -> %d", last.Commits, st.Commits)
				}
				if st.Epochs < last.Epochs {
					t.Errorf("epochs went backwards: %d -> %d", last.Epochs, st.Epochs)
				}
				last = st
				_ = ths[0].Stats()
			}
			for _, th := range ths {
				th.Close()
			}
			live := s.Stats()
			if s.rinval != nil && live.Epochs == 0 {
				t.Errorf("live Epochs = 0 with every commit done, want > 0")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// At least one count per transaction, and each counted once.
			after := s.Stats()
			if after.Commits < workers*iters {
				t.Errorf("commits = %d, want >= %d", after.Commits, workers*iters)
			}
			if after.Commits != live.Commits || after.Epochs != live.Epochs || after.Invalidations != live.Invalidations {
				t.Errorf("after Close Commits/Epochs/Invalidations = %d/%d/%d, live before it %d/%d/%d",
					after.Commits, after.Epochs, after.Invalidations, live.Commits, live.Epochs, live.Invalidations)
			}
		})
	}
}

// TestSetResetReleasesPointers: reset must clear the backing arrays so
// retired Vars/cells are collectable between transactions.
func TestSetResetReleasesPointers(t *testing.T) {
	var rs readSet
	rs.add(NewVar(1), newAnyCell(1))
	rs.add(NewVar(2), newAnyCell(2))
	rs.reset()
	for i, e := range rs.entries[:cap(rs.entries)] {
		if e.v != nil || e.snap != nil {
			t.Errorf("readSet entry %d retained pointers after reset", i)
		}
	}

	ws := newWriteSet(bloom.DefaultParams)
	ws.put(NewVar(3), newAnyCell(3))
	ws.put(NewVar(4), newAnyCell(4))
	ws.reset(false)
	for i, e := range ws.entries[:cap(ws.entries)] {
		if e.v != nil || e.b != nil {
			t.Errorf("writeSet entry %d retained pointers after reset", i)
		}
	}
}

// TestMaxBatchValidation: the knob defaults to 8 and rejects out-of-range
// values.
func TestMaxBatchValidation(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxBatch != 8 {
		t.Errorf("default MaxBatch = %d, want 8", cfg.MaxBatch)
	}
	if _, err := (Config{MaxBatch: -1}).withDefaults(); err == nil {
		t.Error("MaxBatch=-1 accepted")
	}
	if _, err := (Config{MaxBatch: 5000}).withDefaults(); err == nil {
		t.Error("MaxBatch=5000 accepted")
	}
}
