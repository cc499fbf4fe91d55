package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/ssrg-vt/rinval/internal/sim"
	"github.com/ssrg-vt/rinval/stm"
)

// ShardSweepOpts parameterizes the sharded-commit-stream sweep. The sweep has
// two phases, mirroring the repository's sim/live split (results/README.md):
//
//   - Sim: the deterministic 64-core model, where S independent commit-server
//     pipelines actually run on S dedicated modeled cores. This phase carries
//     the scaling claim (single-shard commit throughput vs Config.Shards),
//     which the live CI host cannot measure — a single physical core
//     timeshares the "parallel" servers.
//   - Live: the real engines on this machine. This phase anchors correctness
//     and overhead: the S=1 points must match the group-commit baseline
//     (sharding off is the paper-exact code path), and the S>1 points account
//     every cross-shard commit through the two-phase handshake.
//
// Both phases use the same disjoint-key blind-write workload as the
// group-commit sweep, with MaxBatch=1 so one epoch retires exactly one commit
// and epochs/sec equals commit throughput.
type ShardSweepOpts struct {
	Shards     []int     // shard counts to sweep (default 1,2,4,8)
	SimThreads []int     // sim phase: modeled client counts (default 16,64)
	CrossFracs []float64 // fraction of commits spanning two shards (default 0, 0.1)

	LiveShards  []int // live phase: shard counts (default 1,4)
	LiveClients []int // live phase: client threads (default 1,16,64)
	Iters       int   // live phase: committed transactions per client
	VarsPer     int   // live phase: private vars per client per shard (default 4)
	Seed        uint64
}

func (o *ShardSweepOpts) defaults() {
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2, 4, 8}
	}
	if len(o.SimThreads) == 0 {
		o.SimThreads = []int{16, 64}
	}
	if len(o.CrossFracs) == 0 {
		o.CrossFracs = []float64{0, 0.10}
	}
	if len(o.LiveShards) == 0 {
		o.LiveShards = []int{1, 4}
	}
	if len(o.LiveClients) == 0 {
		o.LiveClients = []int{1, 16, 64}
	}
	if o.VarsPer == 0 {
		o.VarsPer = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ShardSimPoint is one (engine, shards, threads, cross-frac) measurement on
// the modeled 64-core machine.
type ShardSimPoint struct {
	Algo         string  `json:"algo"`
	Shards       int     `json:"shards"`
	Threads      int     `json:"threads"`
	CrossFrac    float64 `json:"cross_frac"`
	Commits      uint64  `json:"commits"`
	EpochsPerSec float64 `json:"epochs_per_sec"`
	KTxPerSec    float64 `json:"ktx_per_sec"`
	AbortRate    float64 `json:"abort_rate"`
	// SpeedupVsS1 is EpochsPerSec relative to the Shards=1 point of the same
	// (algo, threads, cross-frac) — the acceptance number.
	SpeedupVsS1 float64 `json:"speedup_vs_s1"`
}

// ShardStreamStats is one commit stream's share of a live point.
type ShardStreamStats struct {
	Shard             int    `json:"shard"`
	Commits           uint64 `json:"commits"`
	Epochs            uint64 `json:"epochs"`
	CrossShardCommits uint64 `json:"cross_shard_commits"`
}

// ShardLivePoint is one (engine, shards, clients, cross-frac) measurement on
// the real engines.
type ShardLivePoint struct {
	Algo              string             `json:"algo"`
	Shards            int                `json:"shards"`
	Clients           int                `json:"clients"`
	CrossFrac         float64            `json:"cross_frac"`
	DurationNs        int64              `json:"duration_ns"`
	Commits           uint64             `json:"commits"`
	Epochs            uint64             `json:"epochs"`
	CrossShardCommits uint64             `json:"cross_shard_commits"`
	KTxPerSec         float64            `json:"ktx_per_sec"`
	EpochsPerSec      float64            `json:"epochs_per_sec"`
	PerShard          []ShardStreamStats `json:"per_shard,omitempty"`
	// Server holds the per-epoch phase distributions, merged over the shards.
	Server []PhaseHistogram `json:"server_phases,omitempty"`
}

// ShardSweepReport is the full sweep, serialized to BENCH_shard_sweep.json.
type ShardSweepReport struct {
	Workload   string           `json:"workload"`
	SimNote    string           `json:"sim_note"`
	LiveNote   string           `json:"live_note"`
	Iters      int              `json:"iters_per_client"`
	SimPoints  []ShardSimPoint  `json:"sim_points"`
	LivePoints []ShardLivePoint `json:"live_points"`
}

// RunShardSweep executes both phases.
func RunShardSweep(algos []stm.Algo, o ShardSweepOpts) (*ShardSweepReport, error) {
	if o.Iters < 1 {
		return nil, fmt.Errorf("bench: shard-sweep iters must be >= 1")
	}
	o.defaults()
	rep := &ShardSweepReport{
		Workload: fmt.Sprintf("disjoint blind writes, MaxBatch=1, %d private vars per client per shard", o.VarsPer),
		SimNote: "deterministic 64-core model: S commit streams on S dedicated cores, " +
			"InvalServers=2*S (constant per-stream invalidation capacity)",
		LiveNote: "this host (GOMAXPROCS-bound): S=1 is the paper-exact single-stream path " +
			"and must match BENCH_group_commit.json maxbatch=1 within noise",
		Iters: o.Iters,
	}
	for _, algo := range algos {
		simEng, err := sim.ParseEngine(algo.String())
		if err != nil {
			return nil, err
		}
		for _, cf := range o.CrossFracs {
			for _, th := range o.SimThreads {
				base := 0.0
				for _, s := range o.Shards {
					p := runShardSimPoint(simEng, s, th, cf, o.Seed)
					if s == 1 {
						base = p.EpochsPerSec
					}
					if base > 0 {
						p.SpeedupVsS1 = p.EpochsPerSec / base
					}
					rep.SimPoints = append(rep.SimPoints, p)
				}
			}
		}
	}
	for _, algo := range algos {
		for _, cf := range o.CrossFracs {
			for _, clients := range o.LiveClients {
				for _, s := range o.LiveShards {
					p, err := runShardLivePoint(algo, s, clients, cf, o)
					if err != nil {
						return nil, err
					}
					rep.LivePoints = append(rep.LivePoints, p)
				}
			}
		}
	}
	return rep, nil
}

// runShardSimPoint runs one configuration of the modeled machine. The
// workload is conflict-free (disjoint keys), write-only, and memory-bound —
// the regime where the single commit stream is the bottleneck.
func runShardSimPoint(e sim.Engine, shards, threads int, crossFrac float64, seed uint64) ShardSimPoint {
	w := sim.Workload{
		Name:           "disjoint",
		Reads:          4,
		Writes:         4,
		PerReadWork:    60,
		NonTxWork:      400,
		CrossShardFrac: crossFrac,
	}
	c := sim.DefaultConfig(e, threads)
	c.Shards = shards
	c.InvalServers = 2 * shards
	c.Seed = seed
	p := sim.DefaultParams()
	r := sim.MustRun(p, w, c)
	seconds := float64(r.Cycles) / (p.GHz * 1e9)
	return ShardSimPoint{
		Algo:      e.String(),
		Shards:    shards,
		Threads:   threads,
		CrossFrac: crossFrac,
		Commits:   r.Commits,
		// Every commit is a writer (ReadOnlyFrac=0) retiring through exactly
		// one epoch (MaxBatch=1 semantics), so epochs/sec = commits/sec.
		EpochsPerSec: float64(r.Commits) / seconds,
		KTxPerSec:    r.ThroughputKTxPerSec(p),
		AbortRate:    r.AbortRate(),
	}
}

// runShardLivePoint runs one configuration of the real engines. Each client
// owns VarsPer private vars pinned to its home shard (client mod S) and
// VarsPer pinned to the next shard; a cross-frac share of its transactions
// writes one var from each set, exercising the two-phase handshake without
// introducing conflicts.
func runShardLivePoint(algo stm.Algo, shards, clients int, crossFrac float64, o ShardSweepOpts) (ShardLivePoint, error) {
	// S=1 is configured exactly like the group-commit baseline so the parity
	// check is apples-to-apples; S>1 keeps two invalidation-servers per
	// stream and sizes the slot array up to satisfy InvalServers <= MaxThreads
	// at small client counts.
	maxThreads, invalServers := clients, min(4, clients)
	if shards > 1 {
		invalServers = 2 * shards
		maxThreads = max(clients, invalServers)
	}
	sys, err := stm.New(stm.Config{
		Algo:         algo,
		MaxThreads:   maxThreads,
		Shards:       shards,
		InvalServers: invalServers,
		MaxBatch:     1,    // one epoch per commit: epochs/sec is commit throughput
		Latency:      true, // server phase distributions for the report
	})
	if err != nil {
		return ShardLivePoint{}, err
	}
	ths := make([]*stm.Thread, clients)
	for i := range ths {
		ths[i], err = sys.Register()
		if err != nil {
			sys.Close()
			return ShardLivePoint{}, err
		}
	}
	home := make([][]*stm.Var[int], clients)
	away := make([][]*stm.Var[int], clients)
	for w := range home {
		home[w] = shardPinnedVars(sys, w%shards, o.VarsPer)
		away[w] = shardPinnedVars(sys, (w+1)%shards, o.VarsPer)
	}
	// Deterministic, evenly spread cross-shard iterations.
	crossPeriod := 0
	if crossFrac > 0 {
		crossPeriod = int(1/crossFrac + 0.5)
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine, theirs := home[w], away[w]
			for i := 0; i < o.Iters; i++ {
				cross := crossPeriod > 0 && i%crossPeriod == 0
				errs[w] = ths[w].Atomically(func(tx *stm.Tx) error {
					mine[i%len(mine)].Store(tx, i)
					if cross {
						theirs[i%len(theirs)].Store(tx, i)
					}
					return nil
				})
				if errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, th := range ths {
		th.Close()
	}
	if err := sys.Close(); err != nil {
		return ShardLivePoint{}, err
	}
	for _, e := range errs {
		if e != nil {
			return ShardLivePoint{}, e
		}
	}

	commits := uint64(clients) * uint64(o.Iters)
	st := sys.Stats() // post-Close: includes every shard server's counters
	p := ShardLivePoint{
		Algo:              algo.String(),
		Shards:            shards,
		Clients:           clients,
		CrossFrac:         crossFrac,
		DurationNs:        elapsed.Nanoseconds(),
		Commits:           commits,
		Epochs:            st.Epochs,
		CrossShardCommits: st.CrossShardCommits,
		KTxPerSec:         float64(commits) / elapsed.Seconds() / 1e3,
		EpochsPerSec:      float64(st.Epochs) / elapsed.Seconds(),
	}
	for j, sst := range sys.ShardServerStats() {
		p.PerShard = append(p.PerShard, ShardStreamStats{
			Shard:             j,
			Commits:           sst.Commits,
			Epochs:            sst.Epochs,
			CrossShardCommits: sst.CrossShardCommits,
		})
	}
	p.Server = phaseHistograms(sys)
	return p, nil
}

// shardPinnedVars allocates n fresh Vars that all hash to the given shard.
// Var ids hash uniformly, so each pinned Var costs ~S allocations; discarded
// candidates are just garbage.
func shardPinnedVars(sys *stm.System, shard, n int) []*stm.Var[int] {
	out := make([]*stm.Var[int], 0, n)
	for len(out) < n {
		v := stm.NewVar(0)
		if stm.ShardOf(sys, v) == shard {
			out = append(out, v)
		}
	}
	return out
}

// WriteJSON serializes the report with stable indentation.
func (r *ShardSweepReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Format writes human-readable tables of both phases.
func (r *ShardSweepReport) Format(w io.Writer) {
	fmt.Fprintf(w, "== Shard sweep (sim): %s ==\n", r.SimNote)
	fmt.Fprintf(w, "%-12s %7s %8s %6s %14s %12s %8s\n",
		"algo", "shards", "threads", "cross", "epochs/s", "ktx/s", "vs S=1")
	for _, p := range r.SimPoints {
		fmt.Fprintf(w, "%-12s %7d %8d %6.2f %14.0f %12.1f %7.2fx\n",
			p.Algo, p.Shards, p.Threads, p.CrossFrac, p.EpochsPerSec, p.KTxPerSec, p.SpeedupVsS1)
	}
	fmt.Fprintf(w, "\n== Shard sweep (live): %s (%d tx/client) ==\n", r.Workload, r.Iters)
	fmt.Fprintf(w, "%-12s %7s %8s %6s %14s %12s %10s %8s\n",
		"algo", "shards", "clients", "cross", "epochs/s", "ktx/s", "epochs", "xshard")
	for _, p := range r.LivePoints {
		fmt.Fprintf(w, "%-12s %7d %8d %6.2f %14.0f %12.1f %10d %8d\n",
			p.Algo, p.Shards, p.Clients, p.CrossFrac, p.EpochsPerSec, p.KTxPerSec,
			p.Epochs, p.CrossShardCommits)
	}
	fmt.Fprintln(w)
}
