package core

import (
	"sync"
	"testing"

	"github.com/ssrg-vt/rinval/internal/bloom"
)

// TestShardsValidation is the table-driven withDefaults contract for the
// Shards knob, alongside the MaxBatch table in groupcommit_test.go: default
// 1, power-of-two rounding, the 64-shard bitmask cap, engine gating, and the
// InvalServers divisibility requirement.
func TestShardsValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		want    int // effective Shards when ok
		wantErr bool
	}{
		{name: "default-1", cfg: Config{}, want: 1},
		{name: "explicit-1-any-engine", cfg: Config{Algo: NOrec, Shards: 1}, want: 1},
		{name: "negative", cfg: Config{Algo: RInvalV2, Shards: -1}, wantErr: true},
		{name: "beyond-64", cfg: Config{Algo: RInvalV2, Shards: 65}, wantErr: true},
		{name: "power-of-two-kept", cfg: Config{Algo: RInvalV2, Shards: 4, InvalServers: 4}, want: 4},
		{name: "rounds-up-3-to-4", cfg: Config{Algo: RInvalV2, Shards: 3, InvalServers: 4}, want: 4},
		{name: "rounds-up-33-to-64", cfg: Config{Algo: RInvalV2, Shards: 33, InvalServers: 64, MaxThreads: 64}, want: 64},
		{name: "v1-sharded", cfg: Config{Algo: RInvalV1, Shards: 2}, want: 2},
		{name: "v3-sharded", cfg: Config{Algo: RInvalV3, Shards: 2, InvalServers: 4}, want: 2},
		{name: "norec-sharded", cfg: Config{Algo: NOrec, Shards: 2}, wantErr: true},
		{name: "mutex-sharded", cfg: Config{Algo: Mutex, Shards: 2}, wantErr: true},
		{name: "invalstm-sharded", cfg: Config{Algo: InvalSTM, Shards: 2}, wantErr: true},
		{name: "tl2-sharded", cfg: Config{Algo: TL2, Shards: 2}, wantErr: true},
		{name: "servers-not-divisible", cfg: Config{Algo: RInvalV2, Shards: 4, InvalServers: 6}, wantErr: true},
		{name: "servers-divisible", cfg: Config{Algo: RInvalV2, Shards: 4, InvalServers: 8}, want: 4},
		{name: "default-servers-cover-shards", cfg: Config{Algo: RInvalV2, Shards: 8}, want: 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg.withDefaults()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("withDefaults accepted %+v (Shards=%d)", tc.cfg, cfg.Shards)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Shards != tc.want {
				t.Fatalf("effective Shards = %d, want %d", cfg.Shards, tc.want)
			}
			if cfg.InvalServers%cfg.Shards != 0 {
				t.Fatalf("defaulted InvalServers %d not divisible by Shards %d",
					cfg.InvalServers, cfg.Shards)
			}
		})
	}
}

// varInShard returns a fresh Var that s's mask places in the wanted shard
// (Var ids are hashed, so allocation order does not determine the shard).
func varInShard(t *testing.T, s *System, shard int, initial any) *Var {
	t.Helper()
	for i := 0; i < 10000; i++ {
		v := NewVar(initial)
		if s.shardOf(v) == shard {
			return v
		}
	}
	t.Fatalf("no Var hashed to shard %d in 10000 tries", shard)
	return nil
}

// TestShardOfCoversAllStreams: the creation-time hash reaches every shard,
// and shardOf masks the id's H1 — splitmix64(id), pinned by bloom's
// TestLocateGolden — so placement is what it was before Vars held a Key.
func TestShardOfCoversAllStreams(t *testing.T) {
	s := newSys(t, RInvalV2, func(c *Config) { c.Shards = 4; c.InvalServers = 4 })
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	seen := make(map[int]bool)
	for i := 0; i < 1024; i++ {
		v := NewVar(i)
		j := s.shardOf(v)
		if j < 0 || j >= 4 {
			t.Fatalf("shardOf = %d, out of range", j)
		}
		if j != int(bloom.KeyOf(v.ID()).H1&s.shardMask) {
			t.Fatalf("shardOf disagrees with mask")
		}
		seen[j] = true
	}
	for j := 0; j < 4; j++ {
		if !seen[j] {
			t.Errorf("no Var hashed to shard %d in 1024 tries", j)
		}
	}
}

// TestVarKeySetsTheBitsOfItsID: the key a Var hashes once at creation sets
// exactly the bits its id does, in the write signature and the read signature
// alike, at the default and a wide geometry.
func TestVarKeySetsTheBitsOfItsID(t *testing.T) {
	for _, p := range []bloom.Params{bloom.DefaultParams, {Bits: 4096, Hashes: 8}} {
		for i := 0; i < 256; i++ {
			v := NewVar(i)
			byKey, byID, read := bloom.NewFilter(p), bloom.NewFilter(p), bloom.NewAtomic(p)
			byKey.AddKey(v.key)
			byID.Add(v.ID())
			read.AddKey(v.key)
			// k bits each and k in their union: the same k bits.
			both := byKey.Clone()
			both.UnionWith(byID)
			if byKey.PopCount() != p.Hashes || byID.PopCount() != p.Hashes || both.PopCount() != p.Hashes {
				t.Fatalf("%+v Var %d: AddKey and Add(ID) set different bits", p, v.ID())
			}
			if !read.IntersectsFilter(byID) || !read.MayContain(v.ID()) {
				t.Fatalf("%+v Var %d: Atomic.AddKey missed the id's bits", p, v.ID())
			}
		}
	}
}

// TestCrossShardHandshake plants cross-shard write sets — transfers between
// accounts pinned to distinct shards, concurrent with single-shard traffic —
// on every RInval engine at Shards=4, under the race detector. Completion is
// the deadlock-freedom check (the ascending-index stream acquisition must
// never cycle); the conserved account total is the atomicity check; the
// CrossShardCommits counter proves the handshake path actually ran.
func TestCrossShardHandshake(t *testing.T) {
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s, err := New(Config{Algo: algo, MaxThreads: 16, InvalServers: 4,
				StepsAhead: 2, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			const nShards = 4
			const perShard = 2
			const initial = 1000
			// accounts[j] live in shard j%nShards.
			var accounts []*Var
			for j := 0; j < nShards*perShard; j++ {
				accounts = append(accounts, varInShard(t, s, j%nShards, initial))
			}
			const workers, iters = 8, 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < iters; i++ {
						// Pick a cross-shard pair deterministically: adjacent
						// indices always differ in shard (j % nShards).
						from := accounts[(w+i)%len(accounts)]
						to := accounts[(w+i+1)%len(accounts)]
						if err := th.Atomically(func(tx *Tx) error {
							a := tx.Load(from).(int)
							b := tx.Load(to).(int)
							tx.Store(from, a-1)
							tx.Store(to, b+1)
							return nil
						}); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						// Interleave single-shard traffic so the handshake
						// contends with ordinary per-stream epochs.
						solo := accounts[(w*iters+i)%len(accounts)]
						if err := th.Atomically(func(tx *Tx) error {
							tx.Store(solo, tx.Load(solo).(int))
							return nil
						}); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			total := 0
			for _, v := range accounts {
				total += v.Peek().(int)
			}
			if want := len(accounts) * initial; total != want {
				t.Errorf("account total = %d, want %d (torn cross-shard commit)", total, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.CrossShardCommits == 0 {
				t.Error("no cross-shard commits recorded; handshake path never ran")
			}
			if st.CrossShardCommits > st.Commits {
				t.Errorf("CrossShardCommits %d > Commits %d", st.CrossShardCommits, st.Commits)
			}
		})
	}
}

// TestShardDifferentialHistory runs the RMW chain-serializability oracle
// (history_test.go) at Shards=1 and Shards=4 on the same workload shape: the
// sharded run must produce exactly the same kind of single-chain history the
// paper-exact baseline does. The register is read-modify-written by every
// transaction, so under sharding every commit still orders through the
// register's one stream; a second register in another shard makes half the
// transactions cross-shard without breaking the chain.
func TestShardDifferentialHistory(t *testing.T) {
	for _, algo := range rinvalAlgos {
		for _, shards := range []int{1, 4} {
			shards := shards
			t.Run(algo.String()+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				s, err := New(Config{Algo: algo, MaxThreads: 16, InvalServers: 4,
					StepsAhead: 2, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := s.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()
				const workers, per = 6, 80
				const initial = -1
				reg := NewVar(initial)
				// side lives in a different stream than reg when sharded, so
				// odd iterations commit through the cross-shard handshake.
				side := reg
				if shards > 1 {
					side = varInShard(t, s, (s.shardOf(reg)+1)%shards, 0)
				}

				type opRec struct{ read, wrote int }
				records := make([][]opRec, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						th := s.MustRegister()
						defer th.Close()
						for i := 0; i < per; i++ {
							unique := w*per + i
							var read int
							if err := th.Atomically(func(tx *Tx) error {
								read = tx.Load(reg).(int)
								tx.Store(reg, unique)
								if i%2 == 1 {
									tx.Store(side, unique)
								}
								return nil
							}); err != nil {
								t.Errorf("worker %d: %v", w, err)
								return
							}
							records[w] = append(records[w], opRec{read: read, wrote: unique})
						}
					}()
				}
				wg.Wait()

				next := make(map[int]int, workers*per)
				for w := range records {
					for _, r := range records[w] {
						if prev, dup := next[r.read]; dup {
							t.Fatalf("two transactions (%d and %d) both observed %d: lost update",
								prev, r.wrote, r.read)
						}
						next[r.read] = r.wrote
					}
				}
				seen, cur := 0, initial
				for {
					n, ok := next[cur]
					if !ok {
						break
					}
					cur = n
					seen++
				}
				if seen != workers*per {
					t.Fatalf("chain covers %d of %d transactions (history not serializable at Shards=%d)",
						seen, workers*per, shards)
				}
				if got := reg.Peek().(int); got != cur {
					t.Fatalf("final value %d is not the chain tail %d", got, cur)
				}
			})
		}
	}
}

// TestShardAbortReasonsSum extends the taxonomy invariant of
// TestAbortReasonsSumToAborts to sharded systems: conflict reasons still sum
// exactly to Aborts with Shards=4, and the per-shard server stats decompose
// the aggregate — shard Epochs/Commits/Invalidations/CrossShardCommits sum
// to the engine totals, so nothing is double-counted across streams.
func TestShardAbortReasonsSum(t *testing.T) {
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s, err := New(Config{Algo: algo, MaxThreads: 16, InvalServers: 4,
				StepsAhead: 2, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			counters := make([]*Var, 4)
			for j := range counters {
				counters[j] = varInShard(t, s, j, 0)
			}
			const workers, per = 6, 120
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < per; i++ {
						c := counters[(w+i)%len(counters)]
						if err := th.Atomically(func(tx *Tx) error {
							tx.Store(c, tx.Load(c).(int)+1)
							if i%8 == 0 {
								// Every 8th iteration also bumps the next
								// shard's counter: a planted cross-shard RMW.
								d := counters[(w+i+1)%len(counters)]
								tx.Store(d, tx.Load(d).(int)+1)
							}
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
			st := s.Stats()
			if got := st.ConflictAborts(); got != st.Aborts {
				t.Fatalf("conflict reasons sum to %d, Aborts = %d (reasons %v)",
					got, st.Aborts, st.AbortReasons)
			}
			shardStats := s.ShardServerStats()
			if len(shardStats) != 4 {
				t.Fatalf("ShardServerStats returned %d entries, want 4", len(shardStats))
			}
			var epochs, commits, invals, cross uint64
			for _, ss := range shardStats {
				epochs += ss.Epochs
				commits += ss.Commits
				invals += ss.Invalidations
				cross += ss.CrossShardCommits
			}
			eng := s.rinval
			agg := eng.serverStats()
			if epochs != agg.Epochs || commits != agg.Commits ||
				invals != agg.Invalidations || cross != agg.CrossShardCommits {
				t.Fatalf("per-shard stats (%d epochs, %d commits, %d invals, %d cross) "+
					"do not sum to aggregate (%d, %d, %d, %d)",
					epochs, commits, invals, cross,
					agg.Epochs, agg.Commits, agg.Invalidations, agg.CrossShardCommits)
			}
			if cross == 0 {
				t.Error("planted cross-shard RMWs recorded no cross-shard commits")
			}
		})
	}
}

// TestCrossShardMaskClassification: the client-side commit masks route
// correctly — a single-shard write set carries a one-bit touched mask, and a
// read in a foreign shard widens touched beyond writes (the write-skew
// guard), which must send the commit through the handshake.
func TestCrossShardMaskClassification(t *testing.T) {
	s := newSys(t, RInvalV2, func(c *Config) { c.Shards = 4; c.InvalServers = 4 })
	w0 := varInShard(t, s, 0, 0)
	r2 := varInShard(t, s, 2, 0)
	th := s.MustRegister()
	defer th.Close()

	// Writer-only transaction in shard 0: after commit the recorded request
	// masks are single-bit. The slot's req pointer is cleared on reply, so
	// observe classification through the readShards accumulator instead.
	if err := th.Atomically(func(tx *Tx) error {
		tx.Store(w0, 1)
		if tx.readShards != 0 {
			t.Errorf("readShards = %b before any read", tx.readShards)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := th.Atomically(func(tx *Tx) error {
		_ = tx.Load(r2)
		if tx.readShards != 1<<2 {
			t.Errorf("readShards = %b after shard-2 read, want %b", tx.readShards, 1<<2)
		}
		tx.Store(w0, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The read-in-shard-2 + write-in-shard-0 commit must have used the
	// handshake: touched spans two streams even though writes is one bit, and
	// the handshake is led by the lowest touched shard's server (shard 0).
	if got := th.Stats(); got.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", got.Commits)
	}
	eng := s.rinval
	if got := eng.srv[0].stats().CrossShardCommits; got != 1 {
		t.Errorf("shard-0 server CrossShardCommits = %d, want 1 (read-only foreign shard must route through the handshake)", got)
	}
	for j := 1; j < 4; j++ {
		if got := eng.srv[j].stats().CrossShardCommits; got != 0 {
			t.Errorf("shard-%d server led %d handshakes, want 0", j, got)
		}
	}
}
