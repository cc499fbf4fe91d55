package core

import (
	"runtime"
	"sync"
	"testing"

	"github.com/ssrg-vt/rinval/internal/bloom"
)

// Tests for partition try-locks (DESIGN.md §16, "One tier down"): whoever
// holds (stream, partition k)'s lock applies the stream's outstanding
// descriptors to partition k — invalidation-server k, or an epoch driver that
// found the partition lagging and free. Tests that need a lagging partition
// hold its lock, as a server in the middle of a scan would.

var partitionedAlgos = []Algo{RInvalV2, RInvalV3}

// serverTurn plays one loop turn of sv's invalidation-server k: the scan it
// runs when it finds its partition lagging and free.
func serverTurn(sv *shardServer, k int) bool {
	clk := startClock(sv.invalLat[k], sv.invalRings[k])
	return sv.scanPartition(k, &clk)
}

// armReader makes th's slot an in-flight transaction that has read v, as
// Tx.begin and one Load would, so a commit that writes v dooms it.
func armReader(s *System, th *Thread, v *Var) {
	th.slot.readBF.Clear()
	beginSlot(s, th)
	th.slot.readBF.Add(v.id)
}

// TestPartitionLivenessWithoutServers: with no server goroutine of either
// tier, every read+write transaction commits — the client drives the epoch
// and the scans — every partition is caught up the moment an epoch ends, and
// each victim is doomed and counted exactly once.
func TestPartitionLivenessWithoutServers(t *testing.T) {
	const n, victimEvery = 1000, 10
	for _, algo := range partitionedAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := atFourPs(t, newSystem, Config{Algo: algo, MaxThreads: 4, InvalServers: 2, StepsAhead: 2,
				Bloom: bloom.Params{Bits: 1 << 16, Hashes: 2}})
			sv := s.rinval.srv[0]
			th, victim := s.MustRegister(), s.MustRegister()
			v := NewVar(0)
			victims := uint64(0)
			for i := 0; i < n; i++ {
				armed := i%victimEvery == 0
				if armed {
					armReader(s, victim, v)
					victims++
				}
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(v, tx.Load(v).(int)+1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				ts := s.streams[0].ts.Load()
				for k := range s.streams[0].invalTS {
					if got := s.streams[0].invalTS[k].Load(); got != ts {
						t.Fatalf("commit %d: invalTS[%d] = %d, timestamp %d", i, k, got, ts)
					}
					if s.streams[0].partOwner[k].Load() != 0 {
						t.Fatalf("commit %d: partition %d left locked", i, k)
					}
				}
				if armed {
					if _, alive := victim.slot.aliveWord(); alive {
						t.Fatalf("commit %d: reader of the written Var survived", i)
					}
					settle(s, victim.idx, victim.slot)
				}
				if got := sv.stats().Invalidations; got != victims {
					t.Fatalf("commit %d: Invalidations = %d, want %d (once per victim)", i, got, victims)
				}
			}
			if got := v.Peek().(int); got != n {
				t.Fatalf("counter = %d, want %d", got, n)
			}
			st := th.Stats()
			if st.Commits != n || st.HelpedEpochs != n || st.Aborts != 0 {
				t.Fatalf("Commits=%d HelpedEpochs=%d Aborts=%d, want %d/%d/0", st.Commits, st.HelpedEpochs, st.Aborts, n, n)
			}
			th.Close()
			victim.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionDriverDeclinesHeld: a driver that finds a partition's lock held
// leaves the partition to its holder — it neither scans nor touches invalTS,
// the lock word or the descriptors still outstanding — and when the holder
// gets to them, each descriptor is applied once: invalTS advances by exactly 2
// per commit and the victim is counted once. V3 with room to run ahead, so the
// epochs themselves need not wait for the held partition.
func TestPartitionDriverDeclinesHeld(t *testing.T) {
	s := atFourPs(t, newSystem, Config{Algo: RInvalV3, MaxThreads: 4, InvalServers: 2, StepsAhead: 2,
		Bloom: bloom.Params{Bits: 1 << 16, Hashes: 2}})
	eng := s.rinval
	sv, st := eng.srv[0], &s.streams[0]
	// The writer lives in the free partition, the victim in the held one.
	var writer, victim *Thread
	for _, th := range []*Thread{s.MustRegister(), s.MustRegister()} {
		if th.slot.invalServer == 0 {
			writer = th
		} else {
			victim = th
		}
	}
	const held, free = 1, 0
	a, b := NewVar(0), NewVar(0)
	armReader(s, victim, a)

	if !s.tryLockPartition(0, held) {
		t.Fatal("fresh partition lock not free")
	}
	var descs [2]*commitDesc
	for i, v := range []*Var{a, b} {
		sl := postPending(s, writer, v, i+1)
		if !eng.help(&writer.tx, sl.req.touched.Load()) || sl.state.Load()&reqCodeMask != reqCommitted {
			t.Fatalf("commit %d: not committed past the held partition (state %d)", i, sl.state.Load())
		}
		settle(s, writer.idx, sl)
		descs[i] = st.ring[i].Load()
		if got, want := st.ts.Load(), uint64(2*(i+1)); got != want {
			t.Fatalf("commit %d: timestamp %d, want %d", i, got, want)
		}
		if st.invalTS[free].Load() != st.ts.Load() {
			t.Fatalf("commit %d: the free partition was not scanned by the driver", i)
		}
		if st.invalTS[held].Load() != 0 || st.partOwner[held].Load() != 1 {
			t.Fatalf("commit %d: driver touched the held partition (invalTS %d, lock %d)",
				i, st.invalTS[held].Load(), st.partOwner[held].Load())
		}
	}
	if _, alive := victim.slot.aliveWord(); !alive {
		t.Fatal("victim doomed although its partition's scan never ran")
	}
	if got := sv.stats().Invalidations; got != 0 {
		t.Fatalf("Invalidations = %d before the held partition was scanned", got)
	}
	if st.ring[0].Load() != descs[0] || st.ring[1].Load() != descs[1] || descs[0] == descs[1] ||
		!descs[0].bf.MayContain(a.id) || !descs[1].bf.MayContain(b.id) {
		t.Fatal("an outstanding descriptor was overwritten")
	}
	if serverTurn(sv, held) {
		t.Fatal("scanPartition took a partition whose lock is held")
	}

	// The holder lets go; the server's next turn applies both descriptors.
	s.unlockPartition(0, held)
	if !serverTurn(sv, held) {
		t.Fatal("free lagging partition not scanned")
	}
	if got := st.invalTS[held].Load(); got != 4 {
		t.Fatalf("invalTS = %d after two commits, want 4", got)
	}
	if _, alive := victim.slot.aliveWord(); alive {
		t.Fatal("victim survived its partition's scan")
	}
	if got := sv.stats().Invalidations; got != 1 {
		t.Fatalf("Invalidations = %d, want 1 (one victim, one scan)", got)
	}
	if serverTurn(sv, held) || serverTurn(sv, free) {
		t.Fatal("caught-up partition scanned again")
	}
	if st.partOwner[held].Load() != 0 || st.partOwner[free].Load() != 0 {
		t.Fatal("partition lock leaked")
	}
	settle(s, victim.idx, victim.slot)
	writer.Close()
	victim.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionLivenessOneP: a System built with the paper's layout (four Ps)
// then run on a single P, where nobody owns a core — clients, commit-server
// and invalidation-servers all share it — and every transfer still commits;
// whichever goroutine is running does the scans.
func TestPartitionLivenessOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const workers, per, accounts, initial = 2, 300, 4, 100
	for _, algo := range partitionedAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := atFourPs(t, New, Config{Algo: algo, MaxThreads: 4, InvalServers: 2, StepsAhead: 2})
			vars := make([]*Var, accounts)
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
					for i := 0; i < per; i++ {
						from, to := vars[(w+i)%accounts], vars[(w+i+1)%accounts]
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
			if st := s.Stats(); st.Commits != workers*per {
				t.Fatalf("Commits = %d, want %d", st.Commits, workers*per)
			}
		})
	}
}

// TestCommitPathAllocs: the commit request lives in the slot and V2/V3's
// descriptor in the ring slot, so a one-store commit through the servers'
// protocol allocates exactly what an inline commit does through the any API —
// the cell the store publishes (the value 1 boxes for free) and nothing else.
func TestCommitPathAllocs(t *testing.T) {
	perCommit := func(algo Algo) float64 {
		s, err := newSystem(Config{Algo: algo, MaxThreads: 2, InvalServers: 1, StepsAhead: 2})
		if err != nil {
			t.Fatal(err)
		}
		th := s.MustRegister()
		v := NewVar(0)
		body := func(tx *Tx) error {
			tx.Store(v, 1)
			return nil
		}
		n := testing.AllocsPerRun(500, func() { _ = th.Atomically(body) })
		th.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, algo := range []Algo{Mutex, NOrec, InvalSTM, RInvalV1, RInvalV2, RInvalV3} {
		if got := perCommit(algo); got != 1 {
			t.Errorf("%s allocates %v times per one-store commit, want 1 (the cell)", algo, got)
		}
	}
}

// TestStatsCommitsSurviveClose: the epoch drivers count the clients' commits
// a second time from the stream side; Close folds in only what the servers
// alone count, so Commits reads the same before and after it on every engine.
func TestStatsCommitsSurviveClose(t *testing.T) {
	const n = 50
	for _, algo := range []Algo{Mutex, NOrec, InvalSTM, RInvalV1, RInvalV2, RInvalV3, TL2} {
		t.Run(algo.String(), func(t *testing.T) {
			s, err := New(Config{Algo: algo, MaxThreads: 4, InvalServers: 2})
			if err != nil {
				t.Fatal(err)
			}
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
			th.Close()
			before := s.Stats()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			after := s.Stats()
			if before.Commits != n || after.Commits != n {
				t.Fatalf("Commits = %d before Close, %d after, want %d both", before.Commits, after.Commits, n)
			}
			if s.rinval != nil && after.Epochs != n {
				t.Fatalf("Epochs = %d after Close, want %d (server-only fields are still folded)", after.Epochs, n)
			}
		})
	}
}
