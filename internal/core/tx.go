package core

import (
	"fmt"
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// conflictSignal unwinds a transaction body when the engine detects a
// conflict mid-flight (e.g. an invalidation engine observing its INVALIDATED
// flag on a read). It is thrown with panic and caught by Thread.Atomically,
// which retries the transaction; it never escapes the package.
type conflictSignal struct{}

// roFallbackSignal unwinds a snapshot read-only attempt whose snapshot fell
// off a Var's bounded history ring (the writers lapped it, or the commit
// pipeline never went quiet long enough to capture a cut). It is deliberately
// not a conflictSignal: nothing doomed the reader and there is no engine
// state to roll back or abort reason to record — AtomicallyRO catches it,
// counts Stats.ROFallbacks, and re-runs the body once on the regular path.
type roFallbackSignal struct{}

// Thread binds a goroutine to one entry of the cache-aligned requests array.
// Obtain with System.Register, release with Close. A Thread (and its
// transactions) must be driven by a single goroutine at a time.
type Thread struct {
	sys    *System
	idx    int
	slot   *slot
	tx     Tx
	stats  Stats
	inTx   bool
	closed bool
}

// ID returns the thread's slot index within the requests array.
func (th *Thread) ID() int { return th.idx }

// Stats returns a copy of the thread's counters. Safe to call at any time:
// counters are read atomically, each individually.
func (th *Thread) Stats() Stats { return th.stats.snapshotAtomic() }

// Close releases the thread's slot. It panics if called inside Atomically.
func (th *Thread) Close() {
	if th.inTx {
		panic("core: Thread.Close inside a transaction")
	}
	if th.closed {
		return
	}
	th.closed = true
	th.sys.release(th)
}

// Atomically runs fn as a transaction, retrying on conflicts until it
// commits. If fn returns a non-nil error the transaction's writes are
// discarded and the error is returned (a user abort). fn may be re-executed
// many times and must confine its side effects to Tx operations.
func (th *Thread) Atomically(fn func(*Tx) error) error {
	tx := th.startTx("Atomically", false)
	defer th.endTx()
	return tx.retryLoop(fn)
}

// AtomicallyRO runs fn as a read-only transaction. With Config.Versions > 0
// it takes the snapshot path: capture a per-shard epoch vector, resolve every
// Load to the newest version at or below it, and finish without a read
// filter, doom CAS, or revalidation — the transaction can never conflict and
// never appears in an invalidation scan. A reader the writers lap falls back
// once to the regular retry loop (counted in Stats.ROFallbacks). With
// Versions == 0 the regular path runs directly, so the paper-exact baseline
// is behaviourally unchanged. Either way fn must not call Tx.Store (it
// panics); returning a non-nil error aborts as in Atomically.
func (th *Thread) AtomicallyRO(fn func(*Tx) error) error {
	tx := th.startTx("AtomicallyRO", true)
	defer th.endTx()
	if th.sys.nVers > 0 {
		if err, ok := tx.runSnapshot(fn); ok {
			return err
		}
		// Lapped (or capture never stabilized): one shot on the regular path.
	}
	return tx.retryLoop(fn)
}

// startTx opens an Atomically/AtomicallyRO call, named what in its panics;
// the caller defers endTx.
func (th *Thread) startTx(what string, ro bool) *Tx {
	if th.closed {
		panic("core: " + what + " on closed Thread")
	}
	if th.inTx {
		panic("core: nested " + what + " (flat nesting is not supported; pass the Tx down)")
	}
	th.inTx = true
	tx := &th.tx
	tx.roUser = ro
	tx.attempts = 0
	tx.sampleLatency()
	return tx
}

// endTx closes the call, on return and on a panic passing through.
func (th *Thread) endTx() {
	th.tx.roUser = false
	th.inTx = false
}

// sampleLatency makes the one sampling decision per transaction, before the
// first attempt: all of a sampled transaction's attempts are timed, so the
// retry phase is complete and the phase counts equal the sampled-commit
// count. With Latency off (nil cell) this path does no store at all, and
// latOn stays at its zero value; the conditional reset only pays when the
// previous transaction was sampled.
func (tx *Tx) sampleLatency() {
	if tx.lat != nil && tx.lat.Sample() {
		tx.latOn = true
		tx.latT0 = obs.Now()
		tx.latAttemptT0 = tx.latT0
		tx.latRetryNs = 0
	} else if tx.latOn {
		tx.latOn = false
	}
}

// retryLoop drives attempts of fn through the engine until one commits or fn
// asks for a user abort. Shared by Atomically and AtomicallyRO's fallback.
func (tx *Tx) retryLoop(fn func(*Tx) error) error {
	for {
		tx.begin()
		err, conflicted := tx.run(fn)
		if conflicted {
			tx.onConflictAbort()
			continue
		}
		if err != nil {
			tx.onUserAbort()
			return err
		}
		if tx.finishCommit() {
			return nil
		}
		tx.onConflictAbort()
	}
}

// runSnapshot is AtomicallyRO's abort-free path: one attempt against a
// consistent epoch snapshot. ok=false means the attempt fell back (counted in
// ROFallbacks) and the caller must re-run fn on the regular path; the user
// function's effects are discarded either way (it has no writes).
func (tx *Tx) runSnapshot(fn func(*Tx) error) (err error, ok bool) {
	sys := tx.sys
	tx.attempts++
	// Publish the provisional epoch bound, then the liveness bit, then
	// capture. roFloorNow reads the timestamps before the bitmap, so a floor
	// computation that misses our bit used timestamp values from before this
	// point — at or below the provisional bound, and therefore at or below
	// every component of the snapshot we are about to capture (timestamps
	// only grow). One that sees our bit honours the published bound directly.
	prov := ^uint64(0)
	for j := range sys.streams {
		if t := sys.streams[j].ts.Load() &^ 1; t < prov {
			prov = t
		}
	}
	sys.roEpoch[tx.th.idx].Store(prov)
	sys.roActive.set(tx.th.idx)
	defer sys.roActive.clear(tx.th.idx)
	if !sys.captureSnapshot(tx.snap) {
		atomic.AddUint64(&tx.stats.ROFallbacks, 1)
		return nil, false
	}
	// Tighten the published bound to the snapshot's actual minimum so GC
	// reclaims up to what this reader really needs. Raising it is safe: the
	// floor takes the minimum over all live readers and the resolve rule
	// never reaches below the snapshot component of the Var's own shard.
	minSnap := tx.snap[0]
	for _, e := range tx.snap[1:] {
		if e < minSnap {
			minSnap = e
		}
	}
	sys.roEpoch[tx.th.idx].Store(minSnap)

	tx.ro = true
	// The deferred fold covers every exit of the attempt: commit, user
	// abort, fallback, and a panic passing through runRO.
	defer func() { tx.ro = false; tx.foldOps() }()
	tx.traceT0 = tx.ring.Now()
	tx.ring.InstantAt(obs.KBegin, tx.traceT0, uint64(tx.attempts))
	err, fellBack := tx.runRO(fn)
	if fellBack {
		atomic.AddUint64(&tx.stats.ROFallbacks, 1)
		tx.ring.Span(obs.KTx, tx.traceT0, obs.OutcomeAbort)
		if tx.latOn {
			// Fold the burned attempt into the retry phase; the fallback
			// attempt's finishCommit records the sample, as in onConflictAbort.
			now := obs.Now()
			tx.latRetryNs += now - tx.latAttemptT0
			tx.latAttemptT0 = now
		}
		return nil, false
	}
	if err != nil {
		// User abort on the snapshot path: no engine state, no slot to
		// retire — just the taxonomy counter and the trace events.
		atomic.AddUint64(&tx.stats.AbortReasons[AbortExplicit], 1)
		tx.ring.Span(obs.KTx, tx.traceT0, obs.OutcomeUserAbort)
		tx.ring.Instant(obs.KAbort, uint64(AbortExplicit))
		return err, true
	}
	atomic.AddUint64(&tx.stats.Commits, 1)
	atomic.AddUint64(&tx.stats.ReadOnly, 1)
	atomic.AddUint64(&tx.stats.ROCommits, 1)
	tx.ring.Span(obs.KTx, tx.traceT0, obs.OutcomeCommit)
	if tx.latOn {
		// No commit-wait by construction: the snapshot path never queues
		// behind a server or a timestamp CAS.
		end := obs.Now()
		tx.lat.CommitSample(end-tx.latAttemptT0, 0, tx.latRetryNs, end-tx.latT0)
	}
	return nil, true
}

// runRO executes the user function on the snapshot path, translating a
// roFallbackSignal panic into fellBack=true. Other panics propagate directly:
// the snapshot path holds no engine resources or slot state to release.
func (tx *Tx) runRO(fn func(*Tx) error) (err error, fellBack bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(roFallbackSignal); ok {
				fellBack = true
				return
			}
			panic(r)
		}
	}()
	return fn(tx), false
}

// Tx is one transaction attempt's view of the world. It is only valid inside
// the Atomically callback that received it.
type Tx struct {
	sys  *System
	th   *Thread
	slot *slot

	rs    readSet
	ws    *writeSet
	start uint64 // NOrec and an invisible InvalSTM attempt: timestamp snapshot

	attempts int
	stats    *Stats
	direct   bool // Mutex engine: operate on Vars directly under the lock

	// reads and writes count the current attempt's Load and Store calls.
	// They are plain fields — a counted read pays no locked instruction —
	// that every attempt exit folds into Stats.Reads/Writes (foldOps).
	reads, writes uint64

	// roUser marks the whole AtomicallyRO call (snapshot path and fallback
	// alike): Store panics while it is set. ro marks the snapshot attempt
	// specifically: Load resolves against snap, the per-shard epoch vector
	// captured at begin (allocated once at Register when Versions > 0 or the
	// engine can run solo attempts). solo marks an invalidation-engine attempt
	// begun under System.solo: snap holds its streams' timestamps at begin,
	// every read re-checks its stream's against it, and the slot publishes
	// nothing — no read signature, no active bit, no ALIVE word — so no
	// committer can doom it. invisible marks an InvalSTM attempt that is not
	// solo and does not retry a validation abort (System.solo): it publishes
	// nothing either, and validates as NOrec does, against start and the
	// read log rs. An attempt of an invalidation engine that is neither is
	// visible: its slot publishes all three, and a committer can doom it.
	roUser    bool
	ro        bool
	solo      bool
	invisible bool
	snap      []uint64

	// readShards accumulates the shard bits of every Var this attempt read
	// (invalidation engines only; always bit 0 when Config.Shards == 1). The
	// commit request's touched mask is writes ∪ readShards: a transaction
	// that merely read another shard must still order against that stream,
	// or two single-shard writers could commit a cross-shard write skew.
	readShards uint64

	// reason records why the current attempt is failing; every engine
	// conflict path sets it before returning/panicking, and the abort
	// bookkeeping charges the matching Stats.AbortReasons counter.
	reason AbortReason
	// ring is this thread's lifecycle trace ring (nil unless Config.Trace).
	ring *obs.Ring
	// traceT0 is the attempt's begin timestamp on the trace clock.
	traceT0 int64

	// Latency-decomposition state (Config.Latency; DESIGN.md §12). lat is
	// this thread's phase cell (nil when off); latOn marks the current
	// transaction as sampled — every clock read below is gated on it, so an
	// unsampled (or disabled) transaction costs only the flag checks.
	// latT0 anchors the end-to-end phase, latAttemptT0 the current attempt,
	// and latRetryNs accumulates failed attempts.
	lat          *obs.LatCell
	latOn        bool
	latT0        int64
	latAttemptT0 int64
	latRetryNs   int64

	// Attribution state, used only under Config.Attribution (see attr.go).
	// attrKD is this thread's cached unsampled killer descriptor (immutable;
	// reused by every inline commit that is not part of the 1-in-N exact
	// sample); attrSeq counts writer commits for that sampling. attrT0
	// anchors the attempt's wasted-work accounting.
	// pendingRead is the Var id of a read doomed before Tx.Load could log
	// it; conflictVar is the Var a validation/lock abort named at its site.
	attrKD      *killDesc
	attrSeq     uint64
	attrT0      int64
	pendingRead uint64
	conflictVar uint64
}

// Attempt returns the 1-based attempt number of the current execution, so
// workloads can observe retry behaviour.
func (tx *Tx) Attempt() int { return tx.attempts }

// System returns the owning System.
func (tx *Tx) System() *System { return tx.sys }

// begin resets per-attempt state and runs the engine's begin hook.
func (tx *Tx) begin() {
	tx.attempts++
	// Read before the reset below: the previous attempt of this transaction
	// failed validation.
	failedValidation := tx.attempts > 1 && tx.reason == AbortValidation
	tx.rs.reset()
	tx.ws.reset()
	tx.readShards = 0
	tx.reason = AbortInvalidated // engines overwrite at their abort sites
	tx.traceT0 = tx.ring.Now()
	tx.ring.InstantAt(obs.KBegin, tx.traceT0, uint64(tx.attempts))
	if tx.sys.attr != nil {
		tx.pendingRead = 0
		tx.conflictVar = 0
		tx.attrT0 = obs.Now()
	}
	if tx.sys.eng.usesSlots() {
		// A solo attempt publishes nothing: its snapshot is its whole begin.
		// Streams that never stay still long enough for a consistent cut make
		// the attempt shared instead. An invisible one publishes nothing
		// either; the engine's begin takes its snapshot.
		tx.solo = tx.sys.solo() && tx.sys.captureSnapshot(tx.snap)
		tx.invisible = !tx.solo && !failedValidation && tx.sys.eng.readsInvisibly()
		if !tx.solo && !tx.invisible {
			tx.activateSlot()
		}
	}
	tx.sys.eng.begin(tx)
}

// activateSlot makes the slot a visible attempt's: doomable through its read
// signature by any committer. Order matters: clear the read signature while
// the slot is not alive, then set the active bit, then publish the new (epoch,
// ALIVE) word. A server holding the previous word can no longer doom this
// incarnation (CAS epoch guard), and one scanning after the store sees an
// empty filter. The active bit precedes the ALIVE store so a scanner that
// misses the bit has proof the slot was not ALIVE at that point (DESIGN.md
// §9).
func (tx *Tx) activateSlot() {
	tx.slot.readBF.Clear()
	if tx.sys.attr != nil {
		// Retire the previous incarnation's killer descriptor while the slot
		// is not alive: a doomer targeting this incarnation stores its
		// descriptor after observing the ALIVE word below, so it cannot be
		// erased by this clear.
		tx.slot.killer.Store(nil)
	}
	tx.sys.active.set(tx.th.idx)
	epoch := (tx.slot.status.Load() >> epochShift) + 1
	tx.slot.status.Store(statusWord(epoch, txAlive))
}

// run executes the user function, translating a conflictSignal panic into
// conflicted=true. Other panics propagate after the engine's resources are
// released (so e.g. the Mutex engine's global lock is not leaked).
func (tx *Tx) run(fn func(*Tx) error) (err error, conflicted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(conflictSignal); ok {
				conflicted = true
				return
			}
			tx.sys.eng.abort(tx)
			tx.deactivateSlot()
			tx.foldOps()
			panic(r)
		}
	}()
	return fn(tx), false
}

// Load is LoadBox through the any API; v must hold anyCells.
func (tx *Tx) Load(v *Var) any { return anyOf(tx.LoadBox(v)).v }

// LoadBox returns the cell the transaction sees in v — its own buffered write,
// else a published version — aborting (via conflictSignal) if the engine
// detects a conflict.
//
// Updates of tx.stats below are atomic adds so System.Stats can read a live
// thread's counters without a data race; the thread is the only writer.
//
//stm:hotpath
func (tx *Tx) LoadBox(v *Var) *Box {
	tx.reads++
	if tx.ro {
		return tx.loadSnapshot(v)
	}
	if b, ok := tx.ws.lookup(v); ok {
		return b
	}
	if tx.direct {
		return v.loadBox()
	}
	var b *Box
	var ok bool
	if tx.solo {
		b, ok = soloRead(tx, v) // the invalidation engines' solo read, undispatched
	} else {
		b, ok = tx.sys.eng.read(tx, v)
	}
	if !ok {
		panic(conflictSignal{})
	}
	if tx.sys.logReads {
		// NOrec/TL2 revalidate from this log; the invalidation engines keep
		// it here only under Config.Stats or Config.Attribution (an invisible
		// InvalSTM attempt otherwise logs in invalEngine.read).
		tx.rs.add(v, b)
	}
	return b
}

// loadSnapshot resolves v against the attempt's epoch snapshot: the newest
// committed version at or below the snapshot component of v's shard. No read
// filter, no read log, no slot state — nothing a committer could scan or
// doom. A miss (history trimmed or lapped under the reader) unwinds to the
// one-shot fallback in AtomicallyRO.
//
//stm:hotpath
func (tx *Tx) loadSnapshot(v *Var) *Box {
	b, ok := v.versionAt(tx.snap[tx.sys.shardOf(v)])
	if !ok {
		panic(roFallbackSignal{})
	}
	return b
}

// Store is StoreBox through the any API.
func (tx *Tx) Store(v *Var, val any) { tx.StoreBox(v, newAnyCell(val)) }

// StoreBox buffers b as v's next version; it becomes visible atomically at
// commit. b must be a fresh cell of v's cell type that the caller gives up.
//
//stm:hotpath
func (tx *Tx) StoreBox(v *Var, b *Box) {
	if tx.roUser {
		panic("core: Store in read-only transaction")
	}
	tx.writes++
	tx.ws.put(v, b)
}

// foldOps adds the attempt's Load/Store counts to the thread's Stats, one
// atomic add each, and zeroes them. Every way out of an attempt calls it
// once, so a live Stats sample lags by at most the attempt in flight.
func (tx *Tx) foldOps() {
	if tx.reads != 0 {
		atomic.AddUint64(&tx.stats.Reads, tx.reads)
		tx.reads = 0
	}
	if tx.writes != 0 {
		atomic.AddUint64(&tx.stats.Writes, tx.writes)
		tx.writes = 0
	}
}

// finishCommit drives the engine commit and updates stats/slot state.
//
//stm:hotpath
func (tx *Tx) finishCommit() bool {
	var latC0 int64
	if tx.latOn {
		latC0 = obs.Now()
	}
	tc := tx.ring.Now()
	ok := tx.sys.eng.commit(tx)
	tx.deactivateSlot()
	if ok {
		// A refused commit goes on to onConflictAbort, which folds after
		// attribution has read the attempt's counts.
		tx.foldOps()
		atomic.AddUint64(&tx.stats.Commits, 1)
		if tx.ws.len() == 0 {
			atomic.AddUint64(&tx.stats.ReadOnly, 1)
		}
		tx.ring.Span(obs.KCommit, tc, 0)
		tx.ring.Span(obs.KTx, tx.traceT0, obs.OutcomeCommit)
		if tx.latOn {
			// One record per phase per sampled commit, so every client phase
			// histogram's count equals the sampled-commit count, and
			// app + commit-wait + retry <= total (the attempt intervals are
			// disjoint and all lie within [latT0, end]).
			end := obs.Now()
			tx.lat.CommitSample(latC0-tx.latAttemptT0, end-latC0, tx.latRetryNs, end-tx.latT0)
		}
	}
	return ok
}

// onConflictAbort rolls back after a conflict; the caller retries at once
// (committer wins, no pause). The engine set tx.reason at the conflict site;
// the per-reason counter keeps the taxonomy in lockstep with Aborts.
func (tx *Tx) onConflictAbort() {
	tx.sys.eng.abort(tx)
	tx.deactivateSlot()
	atomic.AddUint64(&tx.stats.Aborts, 1)
	atomic.AddUint64(&tx.stats.AbortReasons[tx.reason], 1)
	tx.ring.Span(obs.KTx, tx.traceT0, obs.OutcomeAbort)
	tx.ring.Instant(obs.KAbort, uint64(tx.reason))
	if a := tx.sys.attr; a != nil {
		tx.recordAttribution(a)
	}
	tx.foldOps()
	if tx.latOn {
		// The retry phase is the full cost of the failed attempt, rollback
		// and bookkeeping included. The same timestamp anchors the next
		// attempt, so begin() needs no clock read of its own and the attempt
		// intervals stay disjoint.
		now := obs.Now()
		tx.latRetryNs += now - tx.latAttemptT0
		tx.latAttemptT0 = now
	}
}

// onUserAbort rolls back after the user function returned an error. User
// aborts are not conflicts: they skip Aborts and count under AbortExplicit.
func (tx *Tx) onUserAbort() {
	tx.sys.eng.abort(tx)
	tx.deactivateSlot()
	tx.foldOps()
	atomic.AddUint64(&tx.stats.AbortReasons[AbortExplicit], 1)
	tx.ring.Span(obs.KTx, tx.traceT0, obs.OutcomeUserAbort)
	tx.ring.Instant(obs.KAbort, uint64(AbortExplicit))
}

// deactivateSlot retires the slot's status word so servers stop considering
// this thread in-flight. The epoch field is preserved: the next begin bumps
// it, invalidating any doom a server is still trying to apply. The active
// bit is cleared only after the INACTIVE store (mirror image of begin): a
// scanner that still sees the bit merely re-checks the status word, while
// one that misses it can rely on the transaction having retired. A solo or
// invisible attempt published nothing, so it has nothing to undo.
func (tx *Tx) deactivateSlot() {
	if !tx.sys.eng.usesSlots() || tx.solo || tx.invisible {
		return
	}
	w := tx.slot.status.Load()
	tx.slot.status.Store((w &^ statusBits) | txInactive)
	tx.sys.active.clear(tx.th.idx)
}

// invalidated reports whether this transaction incarnation has been doomed.
// Only a visible attempt can be: a solo or invisible one is never ALIVE and
// checks its snapshot instead, so it must not ask.
func (tx *Tx) invalidated() bool {
	_, alive := tx.slot.aliveWord()
	return !alive
}

// String identifies the transaction for debugging, with the attempt's Load
// and Store calls so far (every engine counts them; not all keep a read log).
func (tx *Tx) String() string {
	return fmt.Sprintf("tx{thread=%d attempt=%d reads=%d writes=%d}",
		tx.th.idx, tx.attempts, tx.reads, tx.writes)
}
