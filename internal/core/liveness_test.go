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

// TestServerTasksRule: only where GOMAXPROCS leaves them a P (four or more)
// does an RInval engine start servers: one commit-server per stream and
// InvalServers/Shards invalidation-servers per stream besides (V2/V3). Below
// four Ps its clients commit themselves and it starts none; the rule is fixed
// at New. No other engine starts a server.
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
				for j := 0; remote && procs >= 4 && j < shards; j++ {
					want = append(want, name("commit-server", j))
					for k := 0; procs >= 4 && algo != RInvalV1 && k < inval/shards; k++ {
						want = append(want, name(fmt.Sprintf("inval-server-%d", k), j))
					}
				}
				if s.rinval != nil {
					for _, task := range s.rinval.serverTasks() {
						got = append(got, task.name)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s, %d shards at GOMAXPROCS %d: server tasks %v, want %v", algo, shards, procs, got, want)
				}
			}
		}
	}
}

// TestPartitionLayoutRule: partitionsPerStream is the RInval layout's one
// value, fixed at New. Below four Ps V2/V3 have no partition, as V1 never
// does: no per-partition state, no step-ahead window, no invalidation-server
// cell or track. A visible reader there never waits on a partition (it has no
// invalTS to load: the slices are empty, so a load would panic), and the
// writer's own inline commit dooms it: the doom is counted on the writer's
// Stats, and no server phase is recorded. At four Ps the paper's layout is
// unchanged: V1's epoch driver dooms inline (commitSrv.Invalidations) in one
// "scan" phase, with no "inval-wait"; V2/V3 have InvalServers/Shards
// partitions per stream, V3's window, a catch-up stage, and the doom counted
// by the reader's partition. Only partitions read descriptors, so each stream's
// ring (and its server's descriptor buffers) has stepsAhead+1 entries with
// partitions and none without.
func TestPartitionLayoutRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const inval, stepsAhead = 4, 2
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, algo := range rinvalAlgos {
			for _, shards := range []int{1, 2} {
				name := fmt.Sprintf("%s, %d shards at GOMAXPROCS %d", algo, shards, procs)
				s, err := newSystem(Config{Algo: algo, MaxThreads: 4, Shards: shards, InvalServers: inval,
					StepsAhead: stepsAhead, Latency: true})
				if err != nil {
					t.Fatal(err)
				}
				eng := s.rinval
				parts, steps, ring := 0, 0, 0
				if procs >= 4 && algo != RInvalV1 {
					parts = inval / shards
					if algo == RInvalV3 {
						steps = stepsAhead
					}
					ring = steps + 1
				}
				if s.nInvalPerShard != parts || eng.stepsAhead != steps || len(s.partMask) != parts {
					t.Errorf("%s: partitions %d (masks %d), stepsAhead %d; want %d and %d",
						name, s.nInvalPerShard, len(s.partMask), eng.stepsAhead, parts, steps)
				}
				for j, sv := range eng.srv {
					st := &s.streams[j]
					if len(st.ring) != ring || len(sv.descBufs) != ring {
						t.Errorf("%s: stream %d ring %d, descriptor buffers %d; want %d", name, j, len(st.ring), len(sv.descBufs), ring)
					}
					if len(st.invalTS) != parts || len(st.partOwner) != parts || len(sv.invalSrv) != parts ||
						len(sv.invalLat) != parts || len(sv.invalRings) != parts {
						t.Errorf("%s: stream %d keeps per-partition state for %d/%d/%d/%d/%d partitions, want %d", name, j,
							len(st.invalTS), len(st.partOwner), len(sv.invalSrv), len(sv.invalLat), len(sv.invalRings), parts)
					}
				}

				// Two Threads, so attempts are shared: the read is visible.
				reader, writer := s.MustRegister(), s.MustRegister()
				v := varInShard(t, s, shards-1, 0)
				if err := reader.AtomicallyRO(func(tx *Tx) error {
					if tx.kind == kindSolo || tx.Load(v) != 0 || tx.readShards != 1<<uint(shards-1) {
						t.Errorf("%s: the read was not a visible one (kind %v)", name, tx.kind)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}

				armReader(s, reader, v)
				if err := writer.Atomically(func(tx *Tx) error {
					tx.Store(v, 1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if _, alive := reader.slot.aliveWord(); alive {
					t.Errorf("%s: the reader of the written Var survived its commit", name)
				}
				settle(s, reader.idx, reader.slot)
				sv := eng.srv[shards-1]
				var byPartition uint64
				for k := range sv.invalSrv {
					byPartition += sv.invalSrv[k].Invalidations
				}
				var inline, byWriter uint64 // dooms by V1's epoch driver, by the writer's own commit
				switch {
				case procs < 4:
					byWriter = 1
				case parts == 0:
					inline = 1
				}
				if got := writer.Stats().Invalidations; sv.commitSrv.Invalidations != inline ||
					byPartition != 1-inline-byWriter || got != byWriter {
					t.Errorf("%s: dooms by the epoch driver %d, by partitions %d, by the writer %d; want %d, %d and %d",
						name, sv.commitSrv.Invalidations, byPartition, got, inline, 1-inline-byWriter, byWriter)
				}
				phases := serverPhaseCounts(s)
				if procs < 4 && len(phases) != 0 ||
					procs >= 4 && parts == 0 && (phases["scan"] != 1 || phases["inval-wait"] != 0) ||
					parts > 0 && (phases["scan"] != uint64(parts) || phases["inval-wait"] != 1) {
					t.Errorf("%s: server phases %v, want none below four Ps, one inline scan and no inval-wait without partitions", name, phases)
				}
				reader.Close()
				writer.Close()
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
