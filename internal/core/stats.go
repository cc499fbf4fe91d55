package core

import (
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/histo"
	"github.com/ssrg-vt/rinval/internal/obs"
)

// AbortReason classifies why a transaction attempt failed; it aliases the
// observability taxonomy so Stats consumers can index AbortReasons without
// importing internal/obs.
type AbortReason = obs.AbortReason

// Abort reasons (see the obs package for semantics).
const (
	AbortInvalidated = obs.AbortInvalidated
	AbortValidation  = obs.AbortValidation
	AbortLocked      = obs.AbortLocked
	AbortExplicit    = obs.AbortExplicit
	NumAbortReasons  = obs.NumAbortReasons
)

// Stats aggregates a thread's transactional activity. Every counter is
// always kept; where a transaction's time goes is the sampled latency
// decomposition's job (Config.Latency, System.LatencyReport).
//
// A live thread updates its counters with atomic adds, so System.Stats and
// Thread.Stats may be called while transactions run: each counter is read
// atomically (the snapshot as a whole is not a single instant, but every
// counter is monotonic, so the result is always a state the thread passed
// through field-by-field).
type Stats struct {
	Commits  uint64 // committed transactions
	Aborts   uint64 // conflict aborts (user aborts are not counted)
	ReadOnly uint64 // committed transactions that wrote nothing
	Reads    uint64 // transactional loads (all attempts), added when an attempt ends
	Writes   uint64 // transactional stores (all attempts), added when an attempt ends

	// ROCommits counts AtomicallyRO transactions that finished on the
	// multi-version snapshot path (Config.Versions > 0): zero aborts, zero
	// invalidation-scan work by construction. A subset of both Commits and
	// ReadOnly. ROFallbacks counts snapshot attempts abandoned because the
	// writers lapped the version ring (or the epoch vector never stabilized);
	// each one re-ran once on the regular path.
	ROCommits   uint64
	ROFallbacks uint64

	Validations   uint64 // NOrec full read-set revalidations
	ValidationOps uint64 // read-set entries compared during revalidations
	Invalidations uint64 // transactions this thread doomed (InvalSTM commits)

	// AbortReasons breaks aborts down by cause, indexed by AbortReason. The
	// conflict reasons (invalidated, validation, locked) sum exactly
	// to Aborts; the trailing AbortExplicit entry counts user aborts (fn
	// returned an error), which Aborts excludes.
	AbortReasons [NumAbortReasons]uint64

	// Epochs counts odd/even timestamp transitions executed on the RInval
	// commit streams, whoever drove them (commit-server, cross-shard leader
	// or client). With group commit one epoch can retire a whole batch, so
	// Epochs <= the server's Commits; the ratio is the batching win. On the
	// server side both are derived from BatchSizes: Epochs is its sample
	// count, the streams' Commits its sum.
	Epochs uint64
	// CrossShardCommits counts commits retired by multi-stream epochs
	// (Config.Shards > 1 only): requests whose touched-shard mask spanned
	// more than one commit stream.
	CrossShardCommits uint64
	// HelpedEpochs counts the epochs a client drove itself and that
	// committed at least one request (DESIGN.md §16): below four Ps, where
	// no server runs, every RInval writer commit (the inline commit under
	// its streams' timestamps); at four or more, the epochs a client ran
	// because its busy-wait budget ran out with no reply and the home
	// stream's lock was free.
	// Recorded on the client's own Stats; those epochs are also in the
	// stream's Epochs, so HelpedEpochs <= Epochs and the ratio is the share
	// of epochs the commit-server did not get to first.
	HelpedEpochs uint64
	// BatchSizes is the distribution of group-commit batch sizes, one sample
	// per committing epoch; Epochs and the server's Commits are its count
	// and sum. Like Server it is empty in a Thread's Stats and filled in
	// System.Stats and ShardServerStats, live (the epoch drivers record into
	// exact-count histograms, one atomic add per sample; this is their
	// snapshot).
	BatchSizes histo.Histogram

	// Server holds the commit streams' clock-free per-epoch samples. The
	// epochs' phase durations are the latency report's server side
	// (Config.Latency, System.LatencyReport).
	Server ServerPhases
}

// ServerPhases is the commit streams' per-epoch occupancy, one histogram
// sample per group-commit epoch.
type ServerPhases struct {
	// QueueDepth is the number of pending commit requests the epoch's
	// collection scan observed (including ones it deferred).
	QueueDepth histo.Histogram
	// StepAhead is the V3 step-ahead occupancy: how many commits the
	// commit-server was running ahead of the slowest invalidation-server
	// when each epoch started.
	StepAhead histo.Histogram
}

// Add accumulates o into s. The counter adds are atomic for the same reason
// the live-thread updates are: s may be a shared aggregate that several
// goroutines fold into, and the atomic discipline on these fields is
// all-or-nothing (stmlint's mixed-access check enforces it). The histogram
// merges stay plain — only snapshots of server stats carry them.
func (s *Stats) Add(o Stats) {
	atomic.AddUint64(&s.Commits, o.Commits)
	atomic.AddUint64(&s.Aborts, o.Aborts)
	atomic.AddUint64(&s.ReadOnly, o.ReadOnly)
	atomic.AddUint64(&s.ROCommits, o.ROCommits)
	atomic.AddUint64(&s.ROFallbacks, o.ROFallbacks)
	atomic.AddUint64(&s.Reads, o.Reads)
	atomic.AddUint64(&s.Writes, o.Writes)
	atomic.AddUint64(&s.Validations, o.Validations)
	atomic.AddUint64(&s.ValidationOps, o.ValidationOps)
	atomic.AddUint64(&s.Invalidations, o.Invalidations)
	for i := range s.AbortReasons {
		atomic.AddUint64(&s.AbortReasons[i], o.AbortReasons[i])
	}
	atomic.AddUint64(&s.Epochs, o.Epochs)
	atomic.AddUint64(&s.CrossShardCommits, o.CrossShardCommits)
	atomic.AddUint64(&s.HelpedEpochs, o.HelpedEpochs)
	s.BatchSizes.Merge(&o.BatchSizes)
	s.Server.QueueDepth.Merge(&o.Server.QueueDepth)
	s.Server.StepAhead.Merge(&o.Server.StepAhead)
}

// snapshotAtomic returns a copy of s safe to take while the owning thread is
// concurrently updating counters with atomic adds. The histograms are not
// copied: no live Stats records into them (shardServer.stats fills them from
// the epoch drivers' atomic histograms).
func (s *Stats) snapshotAtomic() Stats {
	out := Stats{
		Commits:           atomic.LoadUint64(&s.Commits),
		Aborts:            atomic.LoadUint64(&s.Aborts),
		ReadOnly:          atomic.LoadUint64(&s.ReadOnly),
		ROCommits:         atomic.LoadUint64(&s.ROCommits),
		ROFallbacks:       atomic.LoadUint64(&s.ROFallbacks),
		Reads:             atomic.LoadUint64(&s.Reads),
		Writes:            atomic.LoadUint64(&s.Writes),
		Validations:       atomic.LoadUint64(&s.Validations),
		ValidationOps:     atomic.LoadUint64(&s.ValidationOps),
		Invalidations:     atomic.LoadUint64(&s.Invalidations),
		Epochs:            atomic.LoadUint64(&s.Epochs),
		CrossShardCommits: atomic.LoadUint64(&s.CrossShardCommits),
		HelpedEpochs:      atomic.LoadUint64(&s.HelpedEpochs),
	}
	for i := range s.AbortReasons {
		out.AbortReasons[i] = atomic.LoadUint64(&s.AbortReasons[i])
	}
	return out
}

// ConflictAborts sums the conflict-reason abort counters (excluding
// AbortExplicit, which counts user aborts); the result equals Aborts. The
// value receiver is deliberate: these derived views read a snapshot (as
// returned by Thread.Stats / System.Stats), never a live thread's counters.
func (s Stats) ConflictAborts() uint64 {
	var n uint64
	for r := AbortReason(0); r < obs.NumConflictReasons; r++ {
		n += s.AbortReasons[r]
	}
	return n
}

// AbortRate returns aborts / (commits + aborts), or 0 when idle. Value
// receiver for the same reason as ConflictAborts: it is a snapshot view.
func (s Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}
