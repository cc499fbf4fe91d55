// Package obs is the low-overhead observability substrate for the STM
// engines: per-actor, cache-padded, fixed-capacity event ring buffers that
// record transaction lifecycle events with nanosecond timestamps and zero
// allocation on the hot path, plus exporters that turn the rings into a
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) or an
// aligned text summary.
//
// The package is deliberately engine-agnostic: it defines the event
// vocabulary (Kind), the abort taxonomy (AbortReason), and the recording
// machinery; internal/core decides where the events come from. Tracing is an
// opt-in (core's Config.Trace); when off, every recording call is made on a
// nil *Ring and compiles down to an inlined nil check — no clock read, no
// store, no branch misprediction on the transaction hot path.
//
// Concurrency model: each Ring has exactly one writer (the client thread or
// server goroutine it belongs to) storing flat uint64 words with
// single-writer atomics. The exporters read exact contents after the
// writers quiesce (post System.Close); the flight recorder may Snapshot a
// live ring at any time — concurrent snapshots can tear across an event but
// never race.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/internal/padded"
)

// AbortReason classifies why a transaction attempt did not commit. The first
// NumConflictReasons values are conflict aborts and sum to the engines'
// Aborts counter; AbortExplicit counts user aborts (the transaction function
// returned an error), which the engines track separately.
type AbortReason uint8

const (
	// AbortInvalidated: doomed by a committer's invalidation pass (the
	// INVALIDATED status flag was observed on a read or at commit request).
	AbortInvalidated AbortReason = iota
	// AbortValidation: a value- or version-based validation failed (NOrec
	// read-set revalidation, TL2 version check).
	AbortValidation
	// AbortLocked: a per-location lock could not be acquired in time (TL2
	// bounded lock spinning, on read or at commit).
	AbortLocked
	// NumConflictReasons bounds the conflict-abort reasons above.
	NumConflictReasons
	// AbortExplicit: the user function returned an error (not a conflict;
	// excluded from the Aborts counter).
	AbortExplicit = NumConflictReasons
	// NumAbortReasons bounds the whole taxonomy, for counter arrays.
	NumAbortReasons = AbortExplicit + 1
)

// String returns the stable lowercase reason name used in exports.
func (r AbortReason) String() string {
	switch r {
	case AbortInvalidated:
		return "invalidated"
	case AbortValidation:
		return "validation"
	case AbortLocked:
		return "locked"
	case AbortExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("AbortReason(%d)", int(r))
	}
}

// AbortReasons lists the full taxonomy in counter-array order.
var AbortReasons = []AbortReason{
	AbortInvalidated, AbortValidation, AbortLocked, AbortExplicit,
}

// Kind identifies a lifecycle event. Span kinds carry a duration; instant
// kinds mark a point; counter kinds carry a sampled value in Arg.
type Kind uint8

const (
	// KBegin (instant, client): a transaction attempt started. Arg = 1-based
	// attempt number.
	KBegin Kind = iota
	// KTx (span, client): one whole transaction attempt, begin to outcome.
	// Arg = Outcome* code.
	KTx
	// KReadWait (span, client): a read blocked — odd global timestamp,
	// invalidation-server lag, or a held TL2 lock. Arg = Var id.
	KReadWait
	// KValidate (span, client): a NOrec full read-set revalidation. Arg =
	// read-set entries compared.
	KValidate
	// KCommitReq (instant, client): a commit request was published to the
	// commit-server's requests array.
	KCommitReq
	// KCommit (span, client): the commit routine — inline critical section
	// or the full server round trip.
	KCommit
	// KAbort (instant, client): a conflict or user abort. Arg = AbortReason.
	KAbort
	// KEpoch (span, commit-server): one group-commit epoch. Arg = batch size.
	KEpoch
	// KScan (span, commit-server): the batch-collection scan over the
	// requests array. Arg = pending requests observed.
	KScan
	// KInvalWait (span, commit-server): waiting for invalidation-servers to
	// come within the lag budget (V2/V3), or the inline invalidation scan
	// (V1). Arg = transactions doomed (V1 only).
	KInvalWait
	// KWriteBack (span, commit-server): publishing the batch's write sets.
	KWriteBack
	// KReply (span, commit-server): replying COMMITTED to the batch members.
	KReply
	// KInvalScan (span, invalidation-server or commit-server): processing one
	// commit descriptor against one invalidation partition, on the track of
	// whoever ran the scan. Arg = transactions doomed.
	KInvalScan
	// KInval (instant, any invalidator): one victim doomed. Arg = victim
	// slot index.
	KInval
	// KQueueDepth (counter, commit-server): pending commit requests observed
	// by an epoch's collection scan. Arg = depth.
	KQueueDepth
	// KStepAhead (counter, commit-server): commits the V3 server is running
	// ahead of the slowest invalidation-server. Arg = occupancy.
	KStepAhead
	// KLockWait (span, commit-server): a multi-stream epoch's leader
	// acquiring every touched stream's lock.
	KLockWait
	numKinds
)

// Outcome codes carried in a KTx span's Arg.
const (
	OutcomeCommit    uint64 = 0 // the attempt committed
	OutcomeAbort     uint64 = 1 // conflict abort; the KAbort instant has the reason
	OutcomeUserAbort uint64 = 2 // the user function returned an error
)

// String returns the event name used as the Chrome trace event name.
func (k Kind) String() string {
	switch k {
	case KBegin:
		return "begin"
	case KTx:
		return "tx"
	case KReadWait:
		return "read-wait"
	case KValidate:
		return "validate"
	case KCommitReq:
		return "commit-request"
	case KCommit:
		return "commit"
	case KAbort:
		return "abort"
	case KEpoch:
		return "epoch"
	case KScan:
		return "scan"
	case KInvalWait:
		return "inval-wait"
	case KWriteBack:
		return "write-back"
	case KReply:
		return "reply"
	case KInvalScan:
		return "inval-scan"
	case KInval:
		return "invalidate"
	case KQueueDepth:
		return "queue-depth"
	case KStepAhead:
		return "step-ahead"
	case KLockWait:
		return "lock-wait"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// isCounter reports whether k exports as a Chrome counter ("C") event.
func (k Kind) isCounter() bool { return k == KQueueDepth || k == KStepAhead }

// base is the package-wide time origin: every event timestamp is nanoseconds
// since process start, so rings created at different times share one axis.
var base = time.Now()

// Now returns the current trace timestamp (nanoseconds since process start,
// monotonic). Safe to call from any goroutine; costs one clock read.
//
//stmlint:ignore hot-path-deep Now IS the trace clock; hot callers reach it only behind the attribution/tracing enable gates
func Now() int64 { return int64(time.Since(base)) }

// Event is one recorded lifecycle event. 32 bytes, so a default-capacity
// ring is 128 KiB and Record touches a single cache line most of the time.
type Event struct {
	TS   int64  // start time, ns since process start
	Dur  int64  // span duration in ns; 0 for instants and counters
	Kind Kind   // what happened
	Arg  uint64 // kind-specific payload (reason, batch size, victim, ...)
}

// Ring is a fixed-capacity single-writer event buffer. Once full it
// overwrites oldest-first, so a long run keeps the most recent window — the
// part a trace viewer is usually pointed at. All recording methods are
// nil-receiver-safe no-ops, which is how disabled tracing costs nothing:
// the caller holds a nil *Ring and the calls vanish into a nil check.
//
// Storage is flat uint64 words (eventWords per event) written with
// single-writer atomics, so the flight recorder may Snapshot a ring while
// its owner is mid-transaction: a concurrent snapshot can tear across
// events (an old event half-overwritten by a new one) but never races. The
// post-Close exporters still see exact contents, as before.
type Ring struct {
	_     [padded.CacheLineSize]byte
	pos   uint64 // total events ever written; head = pos mod cap
	mask  uint64 // capacity-1 (capacity is a power of two)
	words []uint64
	_     [padded.CacheLineSize]byte
}

// eventWords is the flat-storage footprint of one Event: TS, Dur, Kind, Arg.
const eventWords = 4

// newRing returns a ring holding the capacity rounded up to a power of two.
func newRing(capacity int) *Ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), words: make([]uint64, n*eventWords)}
}

// cap returns the ring's event capacity.
func (r *Ring) capacity() uint64 { return r.mask + 1 }

// eventAt loads the event stored at absolute position p (mod capacity).
func (r *Ring) eventAt(p uint64) Event {
	i := (p & r.mask) * eventWords
	return Event{
		TS:   int64(atomic.LoadUint64(&r.words[i])),
		Dur:  int64(atomic.LoadUint64(&r.words[i+1])),
		Kind: Kind(atomic.LoadUint64(&r.words[i+2])),
		Arg:  atomic.LoadUint64(&r.words[i+3]),
	}
}

// Now returns the current trace timestamp, or 0 on a nil ring — so span
// starts can be captured unconditionally without a clock read when tracing
// is off.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return Now()
}

// record appends one event. Zero allocation: the words slice is
// preallocated and the writes are in-place atomic stores (single writer, so
// plain atomic stores suffice — no CAS). pos is bumped last so a concurrent
// snapshot that observes the new position also observes the event's words.
func (r *Ring) record(ts, dur int64, k Kind, arg uint64) {
	p := atomic.LoadUint64(&r.pos)
	i := (p & r.mask) * eventWords
	atomic.StoreUint64(&r.words[i], uint64(ts))
	atomic.StoreUint64(&r.words[i+1], uint64(dur))
	atomic.StoreUint64(&r.words[i+2], uint64(k))
	atomic.StoreUint64(&r.words[i+3], arg)
	atomic.StoreUint64(&r.pos, p+1)
}

// Instant records a point event at the current time.
func (r *Ring) Instant(k Kind, arg uint64) {
	if r == nil {
		return
	}
	r.record(Now(), 0, k, arg)
}

// InstantAt records a point event at ts (a value from Now) — for call sites
// that already read the clock.
func (r *Ring) InstantAt(k Kind, ts int64, arg uint64) {
	if r == nil {
		return
	}
	r.record(ts, 0, k, arg)
}

// Span records a duration event that started at start (a value from Now)
// and ends now.
func (r *Ring) Span(k Kind, start int64, arg uint64) {
	if r == nil {
		return
	}
	r.record(start, Now()-start, k, arg)
}

// SpanAt records a duration event with explicit bounds — for call sites
// that already read the clock for phase histograms.
func (r *Ring) SpanAt(k Kind, start, end int64, arg uint64) {
	if r == nil {
		return
	}
	r.record(start, end-start, k, arg)
}

// Counter records a sampled value at the current time.
func (r *Ring) Counter(k Kind, val uint64) {
	if r == nil {
		return
	}
	r.record(Now(), 0, k, val)
}

// Len returns the number of events currently retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	if pos := atomic.LoadUint64(&r.pos); pos < r.capacity() {
		return int(pos)
	}
	return int(r.capacity())
}

// Dropped returns how many events were overwritten by wraparound.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if pos := atomic.LoadUint64(&r.pos); pos >= r.capacity() {
		return pos - r.capacity()
	}
	return 0
}

// Snapshot returns the retained events oldest-first. Safe to call while the
// writer runs (the flight recorder does): events written concurrently may
// appear torn or be missed, but the read is race-free; after the writer
// quiesces the snapshot is exact.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	pos := atomic.LoadUint64(&r.pos)
	n := pos
	if n > r.capacity() {
		n = r.capacity()
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := pos - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.eventAt(start+i))
	}
	return out
}

// DefaultRingEvents is the per-actor ring capacity used when the
// configuration leaves it unset.
const DefaultRingEvents = 4096

// Tracer owns one ring per actor (client thread, commit-server,
// invalidation-server). Actors are registered up front by the System; the
// recording hot path never touches the Tracer, only its rings.
type Tracer struct {
	perActor int
	names    []string
	rings    []*Ring
}

// NewTracer returns a tracer whose actors each get a ring of eventsPerActor
// capacity (rounded up to a power of two; DefaultRingEvents when <= 0).
func NewTracer(eventsPerActor int) *Tracer {
	if eventsPerActor <= 0 {
		eventsPerActor = DefaultRingEvents
	}
	return &Tracer{perActor: eventsPerActor}
}

// AddActor registers a named track and returns its ring. Not safe for
// concurrent use; call during System construction only.
func (t *Tracer) AddActor(name string) *Ring {
	r := newRing(t.perActor)
	t.names = append(t.names, name)
	t.rings = append(t.rings, r)
	return r
}

// Actors returns the number of registered tracks.
func (t *Tracer) Actors() int { return len(t.rings) }

// ActorName returns track i's name.
func (t *Tracer) ActorName(i int) string { return t.names[i] }

// Ring returns track i's ring.
func (t *Tracer) Ring(i int) *Ring { return t.rings[i] }

// Events returns the total events retained across all rings.
func (t *Tracer) Events() int {
	n := 0
	for _, r := range t.rings {
		n += r.Len()
	}
	return n
}
