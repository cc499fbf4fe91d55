package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// Tests for client-driven epochs (DESIGN.md §16): a solo attempt
// (System.attemptKind) publishes no request and commits its own write set under its streams' locks
// (commitOwn); elsewhere a waiting client takes a free stream lock once its
// busy phase ran out and runs the epoch itself (help).

// TestHelpLivenessWithoutServer: with no commit-server goroutine at all, every
// write transaction still commits — each one by the client driving its own
// epoch — and the counters line up one to one.
func TestHelpLivenessWithoutServer(t *testing.T) {
	s, err := newSystem(Config{Algo: RInvalV1, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	th := s.MustRegister()
	v := NewVar(0)
	for i := 0; i < n; i++ {
		if err := th.Atomically(func(tx *Tx) error {
			tx.Store(v, tx.Load(v).(int)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Peek().(int); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	st := th.Stats()
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	epochs := s.rinval.serverStats().Epochs
	if st.Commits != n || st.HelpedEpochs != n || epochs != n {
		t.Fatalf("Commits=%d HelpedEpochs=%d Epochs=%d, want all %d", st.Commits, st.HelpedEpochs, epochs, n)
	}
	if got := s.Stats().HelpedEpochs; got != n {
		t.Fatalf("System.Stats folded HelpedEpochs = %d, want %d", got, n)
	}
}

// TestHelpAtOnceWhenServerCools: where the engine gives a commit to the client
// — shared Ps, one Thread, so the attempt is solo — the client drives its
// epoch at once instead of spending the busy phase on a reply that will not
// come. A busy phase raised out of reach makes
// a client that waits for it first hang past the deadline.
func TestHelpAtOnceWhenServerCools(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	busy := spin.BusyIters
	spin.BusyIters = 1 << 40
	t.Cleanup(func() { spin.BusyIters = busy })
	for _, algo := range rinvalAlgos {
		s, err := newSystem(Config{Algo: algo, MaxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		const n = 200
		th := s.MustRegister()
		v := NewVar(0)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(v, tx.Load(v).(int)+1)
					return nil
				}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: %d increments not done in 10s: the client waited out its busy phase", algo, n)
		}
		st := th.Stats()
		if st.Commits != n || st.HelpedEpochs != n {
			t.Fatalf("%s: Commits=%d HelpedEpochs=%d, want both %d", algo, st.Commits, st.HelpedEpochs, n)
		}
		th.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHelpOwnCommitSkipsMailbox: a lone Thread at GOMAXPROCS 2, where no
// server runs, commits its own write set under the stream's timestamp and
// never publishes a request — its slot's mailbox word is the same after 200
// commits — and every one of those commits is one helped epoch of the stream.
// With a second Thread registered the first attempt is invisible and commits
// itself too, and so does the visible retry of a validation abort.
func TestHelpOwnCommitSkipsMailbox(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s, err := New(Config{Algo: algo, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			th := s.MustRegister()
			v := NewVar(0)
			incr := func() {
				t.Helper()
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(v, tx.Load(v).(int)+1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			before := th.slot.state.Load()
			for i := 0; i < n; i++ {
				incr()
			}
			if after := th.slot.state.Load(); after != before {
				t.Fatalf("mailbox word %#x -> %#x: a lone client published a request", before, after)
			}
			st, srv := th.Stats(), s.ShardServerStats()[0]
			if st.Commits != n || st.HelpedEpochs != n || srv.Epochs != n || srv.Commits != n {
				t.Fatalf("Commits=%d HelpedEpochs=%d stream Epochs=%d Commits=%d, want all %d",
					st.Commits, st.HelpedEpochs, srv.Epochs, srv.Commits, n)
			}
			other := s.MustRegister()
			incr()
			if after := th.slot.state.Load(); after != before {
				t.Fatalf("mailbox word %#x -> %#x: an invisible attempt published a request", before, after)
			}
			if st := th.Stats(); st.HelpedEpochs != n+1 {
				t.Fatalf("HelpedEpochs=%d after an invisible commit, want %d", st.HelpedEpochs, n+1)
			}
			if err := th.Atomically(func(tx *Tx) error {
				failFirstAttempt(t, tx, other)
				if tx.kind != kindVisible {
					t.Fatalf("retry of a validation abort is %v, want a visible attempt", tx.kind)
				}
				tx.Store(v, tx.Load(v).(int)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if after := th.slot.state.Load(); after != before {
				t.Fatalf("mailbox word %#x -> %#x: a visible attempt published a request", before, after)
			}
			if got := v.Peek().(int); got != n+2 {
				t.Fatalf("counter = %d, want %d", got, n+2)
			}
			other.Close()
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHelpCatchUpWaitsForHeldPartition: V3's step-ahead bound holds for an
// epoch a client drives itself. Built at four Ps with no server started, a
// lone writer's attempts are shared and every request is answered by the
// writer's own help. Its own partition is free and scanned after each reply;
// the other is held, as by an invalidation-server in mid-scan. The catch-up
// stage admits an epoch while the held partition is at most StepsAhead
// commits behind: StepsAhead+1 commits pass, the next waits for the holder to
// let go, and the client then scans the lagging partition itself.
func TestHelpCatchUpWaitsForHeldPartition(t *testing.T) {
	const stepsAhead = 2
	s := atFourPs(t, newSystem, Config{Algo: RInvalV3, MaxThreads: 4, InvalServers: 2, StepsAhead: stepsAhead})
	th := s.MustRegister()
	held := 1 - th.slot.invalServer
	if !s.tryLockPartition(0, held) {
		t.Fatal("fresh partition lock not free")
	}
	v, x := NewVar(0), 0
	commit := func() error {
		x++
		return th.Atomically(func(tx *Tx) error {
			tx.Store(v, x)
			return nil
		})
	}
	pass := stepsAhead + 1
	for i := 0; i < pass; i++ {
		if err := commit(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- commit() }()
	select {
	case err := <-done:
		t.Fatalf("commit %d passed partition %d held %d commits behind (err %v)",
			pass+1, held, s.streams[0].ts.Load()/2, err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := s.streams[0].ts.Load(); got != 2*uint64(pass) {
		t.Fatalf("timestamp %d while the commit waits, want %d", got, 2*pass)
	}
	s.unlockPartition(0, held)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting commit did not complete once the partition was released")
	}
	if got, st := v.Peek().(int), th.Stats(); got != pass+1 || st.HelpedEpochs != uint64(pass+1) {
		t.Fatalf("counter = %d, HelpedEpochs = %d, want both %d", got, st.HelpedEpochs, pass+1)
	}
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpOwnEpochDoomedSelf: a solo client whose snapshot another commit
// overtook — the one way a solo attempt is doomed, since nothing can CAS its
// status word — learns it from the inline commit's CAS from its snapshot:
// refused with AbortValidation, no timestamp transition of its own, no
// mailbox word, no queue-depth or epoch sample, and no lock held.
func TestHelpOwnEpochDoomedSelf(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s, err := newSystem(Config{Algo: algo, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			th := s.MustRegister()
			sv := s.rinval.srv[0]
			tx := &th.tx
			tx.begin()
			if tx.kind != kindSolo {
				t.Fatal("a lone Thread's attempt at GOMAXPROCS 2 is not solo")
			}
			tx.Store(NewVar(0), 1)
			s.streams[0].ts.Add(2) // a commit the attempt did not see
			state := th.slot.state.Load()
			if inlineCommit(tx) || tx.reason != AbortValidation {
				t.Fatalf("stale snapshot: commit passed or reason %v, want AbortValidation", tx.reason)
			}
			if ts := s.streams[0].ts.Load(); ts != 2 {
				t.Fatalf("timestamp %d after a refused own commit, want 2", ts)
			}
			if got := th.slot.state.Load(); got != state {
				t.Fatalf("mailbox word %#x -> %#x", state, got)
			}
			srv := sv.stats()
			if srv.Epochs != 0 || srv.Server.QueueDepth.Count() != 0 || s.streams[0].owner.Load() != 0 {
				t.Fatalf("Epochs=%d queue-depth samples=%d lock=%d, want 0/0/0",
					srv.Epochs, srv.Server.QueueDepth.Count(), s.streams[0].owner.Load())
			}
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHelpBatchesFollowers: two requests pending, the lower slot's client
// helps, and one epoch answers both — the helper runs the server's own
// collection pass, so group commit is unchanged. Built at four Ps, where the
// helper's attempt is visible and its commit a request.
func TestHelpBatchesFollowers(t *testing.T) {
	// A wide signature keeps the two write sets disjoint whatever Var ids
	// earlier tests consumed (see TestGroupCommitDisjointBatchOneEpoch).
	s := atFourPs(t, newSystem, Config{Algo: RInvalV1, MaxThreads: 4, MaxBatch: 8,
		Bloom: bloom.Params{Bits: 1 << 16, Hashes: 2}})
	helper, follower := s.MustRegister(), s.MustRegister()
	if helper.idx > follower.idx {
		t.Fatalf("helper slot %d above follower slot %d: collection runs upward", helper.idx, follower.idx)
	}
	a, b := NewVar(0), NewVar(0)
	fsl := postPending(s, follower, b, 7)
	if err := helper.Atomically(func(tx *Tx) error {
		tx.Store(a, 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := fsl.state.Load() & reqCodeMask; got != reqCommitted {
		t.Fatalf("follower reply = %d, want reqCommitted", got)
	}
	if a.Peek() != 5 || b.Peek() != 7 {
		t.Fatalf("a=%v b=%v, want 5 and 7", a.Peek(), b.Peek())
	}
	srv := s.rinval.srv[0].stats()
	if srv.Epochs != 1 || srv.Commits != 2 || srv.BatchSizes.Max() != 2 {
		t.Fatalf("Epochs=%d Commits=%d max batch=%d, want 1/2/2", srv.Epochs, srv.Commits, srv.BatchSizes.Max())
	}
	if got := helper.Stats().HelpedEpochs; got != 1 {
		t.Fatalf("helper HelpedEpochs = %d, want 1", got)
	}
	if got := s.streams[0].owner.Load(); got != 0 {
		t.Fatalf("stream lock left at %d after helping", got)
	}
	settle(s, follower.idx, fsl)
	helper.Close()
	follower.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpDeclines pins the three cases where a client must not drive the
// epoch: someone else holds the stream, the request spans streams, and (V3)
// the client's invalidation-server lags. Each leaves the request PENDING and
// the lock as it found it.
func TestHelpDeclines(t *testing.T) {
	t.Run("lock-held", func(t *testing.T) {
		s, err := newSystem(Config{Algo: RInvalV1, MaxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		eng := s.rinval
		th := s.MustRegister()
		sl := postPending(s, th, NewVar(0), 1)
		s.lockStreams(1)
		if eng.help(&th.tx, sl.req.touched.Load()) {
			t.Fatal("helped while another driver held the stream")
		}
		if sl.state.Load()&reqCodeMask != reqPending || s.streams[0].owner.Load() != 1 {
			t.Fatal("declined help changed the request or the lock")
		}
		s.unlockStream(0)
		if !eng.help(&th.tx, sl.req.touched.Load()) || sl.state.Load()&reqCodeMask != reqCommitted {
			t.Fatal("free stream: help should have committed the request")
		}
		settle(s, th.idx, sl)
		th.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("cross-shard", func(t *testing.T) {
		s, err := newSystem(Config{Algo: RInvalV1, MaxThreads: 4, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		eng := s.rinval
		th := s.MustRegister()
		sl := postPending(s, th, NewVar(0), 1)
		sl.req.writes.Store(3)
		sl.req.touched.Store(3)
		if eng.help(&th.tx, sl.req.touched.Load()) {
			t.Fatal("helped a cross-shard request; those are leader-only")
		}
		if sl.state.Load()&reqCodeMask != reqPending || s.streams[0].owner.Load() != 0 || s.streams[1].owner.Load() != 0 {
			t.Fatal("declined help changed the request or a lock")
		}
		settle(s, th.idx, sl)
		th.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("v3-lag", func(t *testing.T) {
		s := atFourPs(t, newSystem, Config{Algo: RInvalV3, MaxThreads: 4, InvalServers: 1, StepsAhead: 2})
		eng := s.rinval
		th0, th1 := s.MustRegister(), s.MustRegister()
		// The invalidation-server is in the middle of a scan: it holds the
		// partition, so the first epoch's driver leaves its descriptor to it.
		if !s.tryLockPartition(0, 0) {
			t.Fatal("fresh partition lock not free")
		}
		sl0 := postPending(s, th0, NewVar(0), 1)
		if !eng.help(&th0.tx, sl0.req.touched.Load()) {
			t.Fatal("first epoch: nothing lags yet, help should commit")
		}
		// invalTS now trails the timestamp and the next requester's ALIVE
		// check is inconclusive.
		sl1 := postPending(s, th1, NewVar(0), 2)
		if eng.help(&th1.tx, sl1.req.touched.Load()) {
			t.Fatal("V3 helper served a request whose partition is still being scanned")
		}
		if sl1.state.Load()&reqCodeMask != reqPending || s.streams[0].owner.Load() != 0 {
			t.Fatal("declined help changed the request or kept the lock")
		}
		if s.streams[0].invalTS[0].Load() != 0 || s.streams[0].partOwner[0].Load() != 1 {
			t.Fatal("declined help touched the partition its server holds")
		}
		if got := th1.Stats().HelpedEpochs; got != 0 {
			t.Fatalf("declined help counted %d helped epochs", got)
		}
		// The server finishes and takes its next turn; the deferred request
		// is then served.
		s.unlockPartition(0, 0)
		if !serverTurn(eng.srv[0], 0) {
			t.Fatal("free lagging partition not scanned")
		}
		if !eng.help(&th1.tx, sl1.req.touched.Load()) || sl1.state.Load()&reqCodeMask != reqCommitted {
			t.Fatalf("caught-up partition: help should have committed the request (state %d)", sl1.state.Load())
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

// TestHelpStress runs clients against live servers with every recorder a lock
// holder writes switched on (Stats histograms, trace rings, latency cells), so
// under -race a write to a stream's scratch outside its lock, or to a
// partition's outside the partition lock, shows up. Transfers between accounts
// placed on known shards give single-stream and cross-shard commits, conflicts
// and batches; V2/V3 run with one and with two partitions per stream, so
// drivers and invalidation-servers race for partitions they both may scan.
func TestHelpStress(t *testing.T) {
	for _, algo := range rinvalAlgos {
		for _, shards := range []int{1, 4} {
			for _, maxBatch := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/shards=%d/batch=%d", algo, shards, maxBatch), func(t *testing.T) {
					cfg := Config{Algo: algo, MaxThreads: 8, InvalServers: 4, StepsAhead: 2,
						Shards: shards, MaxBatch: maxBatch, Stats: true, Trace: true, Latency: true}
					if algo == RInvalV1 {
						helpStress(t, cfg)
						return
					}
					for _, perStream := range []int{1, 2} {
						cfg.InvalServers = perStream * shards
						t.Run(fmt.Sprintf("inval=%d", perStream), func(t *testing.T) { helpStress(t, cfg) })
					}
				})
			}
		}
	}
}

func helpStress(t *testing.T, cfg Config) {
	const workers, per, accounts, initial = 4, 150, 8, 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Accounts 2k and 2k+1 share a stream; a transfer goes to the sibling,
	// every fourth one to the next pair (cross-shard when Shards > 1).
	vars := make([]*Var, accounts)
	for i := range vars {
		vars[i] = varInShard(t, s, (i/2)%cfg.Shards, initial)
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
				f := (w + i) % accounts
				from, to := vars[f], vars[f^1]
				if i%4 == 3 {
					to = vars[(f+2)%accounts]
				}
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(from, tx.Load(from).(int)-1)
					tx.Store(to, tx.Load(to).(int)+1)
					return nil
				}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
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
	st := s.Stats()
	if got := st.ConflictAborts(); got != st.Aborts {
		t.Fatalf("conflict reasons sum to %d, Aborts = %d (reasons %v)", got, st.Aborts, st.AbortReasons)
	}
	if st.HelpedEpochs > st.Epochs {
		t.Fatalf("HelpedEpochs = %d exceeds Epochs = %d", st.HelpedEpochs, st.Epochs)
	}
	if st.Commits != workers*per {
		t.Fatalf("Commits = %d, want %d", st.Commits, workers*per)
	}
	for j := range s.streams {
		st := &s.streams[j]
		for k := range st.invalTS {
			if st.partOwner[k].Load() != 0 || st.invalTS[k].Load() > st.ts.Load() {
				t.Fatalf("stream %d partition %d: lock %d, invalTS %d past timestamp %d",
					j, k, st.partOwner[k].Load(), st.invalTS[k].Load(), st.ts.Load())
			}
		}
	}
	t.Logf("epochs %d, helped %d, cross-shard %d, aborts %d",
		st.Epochs, st.HelpedEpochs, st.CrossShardCommits, st.Aborts)
}
