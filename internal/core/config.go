package core

import (
	"fmt"
	"time"

	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/obs"
)

// Algo selects the concurrency-control engine.
type Algo int

const (
	// Mutex serializes whole atomic blocks under one global mutex — the
	// coarse-grained locking baseline of the paper's Figure 1(b).
	Mutex Algo = iota
	// NOrec is value-based incremental validation over a global sequence
	// lock — the paper's validation-based competitor.
	NOrec
	// InvalSTM is commit-time invalidation executed inline by the committing
	// thread — the paper's Algorithm 1.
	InvalSTM
	// RInvalV1 executes commits (including invalidation) on a dedicated
	// commit-server — the paper's Algorithm 2.
	RInvalV1
	// RInvalV2 adds parallel invalidation-servers — the paper's Algorithm 3.
	RInvalV2
	// RInvalV3 adds step-ahead commit — the paper's Algorithm 4.
	RInvalV3
	// TL2 is a fine-grained baseline: per-location versioned write-locks
	// over a global version clock (Dice, Shalev, Shavit — DISC 2006). The
	// paper repeatedly contrasts the coarse-grained family against this
	// design point (more concurrency, more metadata, harder HTM/privatization
	// integration); it is provided for the ablation experiments.
	TL2
)

// String returns the name used in the paper's plots.
func (a Algo) String() string {
	switch a {
	case Mutex:
		return "mutex"
	case NOrec:
		return "norec"
	case InvalSTM:
		return "invalstm"
	case RInvalV1:
		return "rinval-v1"
	case RInvalV2:
		return "rinval-v2"
	case RInvalV3:
		return "rinval-v3"
	case TL2:
		return "tl2"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Algos lists every engine, in the order the paper discusses them.
var Algos = []Algo{Mutex, NOrec, InvalSTM, RInvalV1, RInvalV2, RInvalV3, TL2}

// ParseAlgo converts a name produced by Algo.String back to an Algo.
func ParseAlgo(s string) (Algo, error) {
	for _, a := range Algos {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// Config parameterizes a System. The zero value is not usable; call
// (*Config).withDefaults via New, which fills unset fields.
type Config struct {
	// Algo selects the engine. The zero value is Mutex.
	Algo Algo
	// MaxThreads bounds the number of concurrently registered threads and
	// sizes the request-slot array. Default 64, matching the paper's testbed.
	MaxThreads int
	// InvalServers is the number of invalidation partitions for RInvalV2/V3,
	// each scanned by its own invalidation-server goroutine, where RInval's
	// servers run (GOMAXPROCS at least 4, fixed at New). Below four Ps no
	// server runs and every commit dooms inline: it has no effect there. The
	// paper found 4-8 sufficient on 64 cores. Default 4.
	InvalServers int
	// StepsAhead bounds how far the RInvalV3 commit-server may run ahead of
	// the slowest invalidation-server, in commits; no effect below four Ps.
	// Default 2.
	StepsAhead int
	// MaxBatch caps how many mutually compatible commit requests the RInval
	// commit-server may fold into one group-commit epoch (one odd/even
	// timestamp transition, one merged invalidation signature). 1 disables
	// batching and reproduces the paper's one-request-per-epoch protocol
	// exactly. No effect below four Ps, where every client commits itself in
	// an epoch of its own. Default 8.
	MaxBatch int
	// Shards partitions Vars across independent commit streams, each with its
	// own commit-server, timestamp, and invalidation partition (DESIGN.md
	// §11). Every Var hashes to one shard at creation; a transaction that
	// touches a single shard commits through that shard's stream alone, while
	// a cross-shard transaction commits in one epoch over every stream it
	// touched, acquired in shard-index order. 1 (the
	// default) is the paper-exact single-stream baseline and the differential
	// oracle, the same pattern MaxBatch=1 establishes. Values that
	// are not powers of two are rounded up to the next power of two (the
	// shard hash is a mask); the rounded value must not exceed 64 (shard sets
	// travel as uint64 bitmasks). Shards > 1 requires a remote-invalidation
	// engine (RInvalV1/V2/V3) and, for V2/V3, an InvalServers count divisible
	// by Shards so every stream gets the same number of invalidation-servers.
	Shards int
	// Bloom is the read/write signature geometry: Bits a power of two >= 64,
	// Hashes in [1,8]. Default bloom.DefaultParams.
	Bloom bloom.Params
	// Stats makes NOrec and the invalidation engines keep the per-transaction
	// read log in every attempt. TL2 always keeps it, and so does an invisible
	// attempt (a shared one of NOrec, InvalSTM, and RInval below four Ps),
	// which validates from it; Stats forces it on for the solo and visible
	// attempts. Off by default.
	Stats bool
	// Attribution enables conflict attribution: the who-aborted-whom matrix,
	// wasted-work accounting per abort reason, bloom false-positive sampling,
	// and hot-var reservoir sampling (see System.ConflictReport and DESIGN.md
	// §10). Committers publish a killer descriptor before each doom CAS and
	// victims record on their abort path; read logging is forced on for the
	// invalidation engines so the sampled exact-set check has data. Off by
	// default; when off, every record site is a nil-receiver no-op.
	Attribution bool
	// AttrSampleEvery is the deterministic sampling period of the exact
	// read-set ∩ write-set false-positive check: every Nth writer commit
	// attaches its exact write ids to the killer descriptor. 1 checks every
	// doom. Default 8.
	AttrSampleEvery int
	// Latency enables the sampled critical-path latency decomposition
	// (DESIGN.md §12): 1 in LatencySampleEvery transactions per thread is
	// timed end-to-end and split into app-work, retry, and commit-wait on
	// the client side, and every commit-server epoch into collect, scan,
	// inval-wait, write-back, reply (plus cross-shard lock-wait/drain)
	// phases — all recorded into cache-padded per-actor histograms readable
	// live via System.LatencyReport, /metrics, and stmtop. Off by default;
	// when off, every record site is a nil/bool check with no clock read.
	Latency bool
	// LatencySampleEvery is the per-thread sampling period of the latency
	// decomposition: every Nth transaction is timed. 1 times every
	// transaction. Default 64.
	LatencySampleEvery int
	// FlightRecorder arms the triggered post-mortem dump: after every window
	// the time-series sampler pushes, it runs one flight check, and when a
	// declared SLO's burn alert rose on that window, or the stall watchdog
	// trips (a client waiting on its commit reply, or a V2/V3 invalidation
	// partition trailing its stream, across two windows with no progress), it
	// writes a flight bundle — trace-ring snapshots, conflict report, latency
	// report, windowed telemetry, goroutine stacks — atomically to a
	// timestamped JSON file under FlightDir, at most one per 10 s. With no
	// SLOs declared the recorder is the stall watchdog alone. Implies
	// TimeSeries (at DefaultTimeSeriesWindows when unset). Off by default.
	FlightRecorder bool
	// FlightDir is the directory flight bundles are written to. Default
	// "flight" (relative to the working directory).
	FlightDir string
	// TimeSeries enables the windowed telemetry engine (DESIGN.md §15): a
	// sampler goroutine snapshots the cumulative counters and latency
	// histograms every TimeSeriesInterval and delta-encodes them into a
	// bounded ring, exposing windowed rates, moving quantiles, and SLO burn
	// rates via System.TimeSeriesReport, the /debug/stm/timeseries endpoint,
	// and /metrics gauges. The value is the ring capacity in windows
	// (DefaultTimeSeriesWindows = 600 ≈ 10 min at the default 1 s interval);
	// values 2..65536 are accepted. 0 (the default) disables the engine
	// entirely: no sampler goroutine, no ring memory, and zero hot-path cost
	// — the engine has no per-transaction record sites at all, it only reads
	// counters the other knobs already maintain. Implies Latency (the
	// windowed quantiles delta the latency recorder's histograms).
	TimeSeries int
	// TimeSeriesInterval is the sampler's window length. Default 1s;
	// minimum 1ms.
	TimeSeriesInterval time.Duration
	// SLOs declares service-level objectives the time-series engine
	// evaluates every window with multi-window burn rates (obs.SLO: a fast
	// and a slow trailing window must both burn the error budget past the
	// threshold before an alert fires — the SRE rule that ignores blips but
	// catches slow bleeds). Alerts land in the report, the /metrics
	// stm_slo_* gauges, and — when FlightRecorder is armed — trigger a
	// flight dump carrying the tripping window. Setting SLOs with
	// TimeSeries == 0 enables the engine at DefaultTimeSeriesWindows. An
	// objective whose threshold no window can reach is rejected.
	SLOs []obs.SLO
	// Trace enables lifecycle event tracing: every client thread and server
	// goroutine records begin/read-wait/commit/abort/epoch/invalidation
	// events with nanosecond timestamps into a fixed-capacity per-actor ring
	// buffer (internal/obs). Export via System.Tracer (Chrome trace-event
	// JSON or text summary) after Close. Off by default; when off, the
	// recording sites are nil-ring no-ops.
	Trace bool
	// TraceEvents caps the events retained per actor ring (rounded up to a
	// power of two; oldest events are overwritten once full). Default 4096,
	// i.e. 128 KiB per actor.
	TraceEvents int
	// Versions keeps, per Var, a bounded ring of the most recent committed
	// boxes stamped with the commit epoch that installed them (DESIGN.md §14).
	// With Versions > 0 a transaction run via Thread.AtomicallyRO captures a
	// per-shard epoch snapshot at begin, resolves every Load to the newest
	// version at or below that snapshot, and commits without a read filter,
	// doom CAS, or revalidation — zero aborts by construction and zero work
	// added to committers' epochs. A reader the writers lap (its snapshot
	// falls off the ring) falls back once to the regular path, counted in
	// Stats.ROFallbacks. 0 (the default) disables versioning and is the
	// paper-exact baseline: write-back installs bare boxes and AtomicallyRO
	// degrades to the regular read-only path. Values 2..1024 are accepted;
	// 1 is rejected (a one-entry ring can never satisfy a reader that is even
	// one epoch behind). TL2 is excluded: its per-Var verlock clock is not
	// the seqlock epoch the snapshot rule is anchored on.
	Versions int
	// Seed derives the sampling streams of the Attribution hot-var
	// reservoirs, so their samples are reproducible. Default 1.
	Seed uint64
}

// withDefaults returns a copy of c with unset fields defaulted and validates
// the result.
func (c Config) withDefaults() (Config, error) {
	if c.MaxThreads == 0 {
		c.MaxThreads = 64
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards > 64 {
		return c, fmt.Errorf("core: Shards %d out of range [1,64]", c.Shards)
	}
	// Round up to a power of two so the shard hash is a mask (documented on
	// the field); the rounded value must still fit a 64-bit shard set.
	c.Shards = nextPow2(c.Shards)
	if c.Shards > 64 {
		return c, fmt.Errorf("core: Shards rounds up to %d, beyond the 64-shard bitmask limit", c.Shards)
	}
	if c.InvalServers == 0 {
		// Default to the paper's sweet spot, clamped so small systems work
		// out of the box — but never below one invalidation-server per shard.
		c.InvalServers = 4
		if c.MaxThreads > 0 && c.InvalServers > c.MaxThreads {
			c.InvalServers = c.MaxThreads
		}
		if c.InvalServers < c.Shards {
			c.InvalServers = c.Shards
		}
	}
	if c.StepsAhead == 0 {
		c.StepsAhead = 2
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.Bloom == (bloom.Params{}) {
		c.Bloom = bloom.DefaultParams
	}
	if err := c.Bloom.Validate(); err != nil {
		return c, fmt.Errorf("core: Bloom: %w", err)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TraceEvents == 0 {
		c.TraceEvents = obs.DefaultRingEvents
	}
	if c.AttrSampleEvery == 0 {
		c.AttrSampleEvery = 8
	}
	if (c.FlightRecorder || len(c.SLOs) > 0) && c.TimeSeries == 0 {
		// Both ride the sampler: SLOs are evaluated per window and the flight
		// check runs after each push.
		c.TimeSeries = DefaultTimeSeriesWindows
	}
	if c.TimeSeries != 0 {
		if c.TimeSeries < 2 || c.TimeSeries > 1<<16 {
			return c, fmt.Errorf("core: TimeSeries %d out of range [2,65536] (or 0 to disable)", c.TimeSeries)
		}
		if c.TimeSeriesInterval == 0 {
			c.TimeSeriesInterval = time.Second
		}
		if c.TimeSeriesInterval < time.Millisecond {
			return c, fmt.Errorf("core: TimeSeriesInterval %v below 1ms", c.TimeSeriesInterval)
		}
		// The windowed quantiles delta the latency recorder's histograms.
		c.Latency = true
		// Copy before normalizing so the caller's slice is never mutated.
		c.SLOs = append([]obs.SLO(nil), c.SLOs...)
		names := make(map[string]bool, len(c.SLOs))
		for i := range c.SLOs {
			o, err := c.SLOs[i].Normalize(c.TimeSeriesInterval, c.TimeSeries)
			if err != nil {
				return c, fmt.Errorf("core: SLOs[%d]: %w", i, err)
			}
			if names[o.Name] {
				return c, fmt.Errorf("core: duplicate SLO name %q", o.Name)
			}
			names[o.Name] = true
			c.SLOs[i] = o
		}
	}
	if c.LatencySampleEvery == 0 {
		c.LatencySampleEvery = 64
	}
	if c.LatencySampleEvery < 1 || c.LatencySampleEvery > 1<<20 {
		return c, fmt.Errorf("core: LatencySampleEvery %d out of range [1,1Mi]", c.LatencySampleEvery)
	}
	if c.FlightDir == "" {
		c.FlightDir = "flight"
	}
	if c.AttrSampleEvery < 1 || c.AttrSampleEvery > 1<<20 {
		return c, fmt.Errorf("core: AttrSampleEvery %d out of range [1,1Mi]", c.AttrSampleEvery)
	}
	if c.TraceEvents < 16 || c.TraceEvents > 1<<22 {
		return c, fmt.Errorf("core: TraceEvents %d out of range [16,4Mi]", c.TraceEvents)
	}
	if c.MaxThreads < 1 || c.MaxThreads > 4096 {
		return c, fmt.Errorf("core: MaxThreads %d out of range [1,4096]", c.MaxThreads)
	}
	if c.InvalServers < 1 || c.InvalServers > c.MaxThreads {
		return c, fmt.Errorf("core: InvalServers %d out of range [1,MaxThreads]", c.InvalServers)
	}
	if c.StepsAhead < 1 || c.StepsAhead > 64 {
		return c, fmt.Errorf("core: StepsAhead %d out of range [1,64]", c.StepsAhead)
	}
	if c.MaxBatch < 1 || c.MaxBatch > 4096 {
		return c, fmt.Errorf("core: MaxBatch %d out of range [1,4096]", c.MaxBatch)
	}
	switch c.Algo {
	case Mutex, NOrec, InvalSTM, RInvalV1, RInvalV2, RInvalV3, TL2:
	default:
		return c, fmt.Errorf("core: unknown Algo %d", c.Algo)
	}
	if c.Shards > 1 {
		switch c.Algo {
		case RInvalV1, RInvalV2, RInvalV3:
		default:
			return c, fmt.Errorf("core: Shards %d requires a remote-invalidation engine, not %v", c.Shards, c.Algo)
		}
		if c.InvalServers%c.Shards != 0 {
			return c, fmt.Errorf("core: InvalServers %d is not divisible by Shards %d (each stream needs an equal invalidation partition)", c.InvalServers, c.Shards)
		}
	}
	if c.Versions != 0 {
		if c.Versions < 2 || c.Versions > 1024 {
			return c, fmt.Errorf("core: Versions %d out of range [2,1024] (or 0 to disable)", c.Versions)
		}
		if c.Algo == TL2 {
			return c, fmt.Errorf("core: Versions requires a seqlock-epoch engine, not %v", c.Algo)
		}
	}
	return c, nil
}

// nextPow2 rounds n up to the next power of two (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
