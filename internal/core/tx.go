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

// roFallbackSignal unwinds a snapshot attempt whose snapshot fell off a Var's
// bounded history ring (the writers lapped it). It is deliberately not a
// conflictSignal: nothing doomed the reader and no abort reason applies. Tx.run
// recovers it as a failed attempt, onConflictAbort counts it in
// Stats.ROFallbacks only, and the retry takes the regular rule.
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
// its first attempt is a snapshot one (kindSnapshot, chosen in Tx.begin):
// every Load resolves to the newest version at or below a captured per-shard
// epoch vector, with no read filter, doom CAS, or revalidation — the attempt
// can never conflict and never appears in an invalidation scan. A reader the
// writers lap falls back to the regular retry loop (counted in
// Stats.ROFallbacks). With Versions == 0 every attempt is a regular one, so
// the paper-exact baseline is behaviourally unchanged. Either way fn must not
// call Tx.Store (it panics); returning a non-nil error aborts as in
// Atomically.
func (th *Thread) AtomicallyRO(fn func(*Tx) error) error {
	tx := th.startTx("AtomicallyRO", true)
	defer th.endTx()
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
// asks for a user abort. Shared by Atomically and AtomicallyRO.
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

// attemptKind is how one attempt reads, validates and commits (DESIGN.md §3),
// and whether it keeps a read log. Only Tx.begin sets Tx.kind, from
// System.attemptKind.
type attemptKind uint8

const (
	kindValidated attemptKind = iota // TL2: validated from the read log (tl2Read)
	// kindSnapshot: the first attempt of an AtomicallyRO call with Versions.
	// Load resolves against snap (loadSnapshot); the slot's roActive bit and
	// roEpoch hold the history it needs (System.beginSnapshot). Listed here,
	// LoadBox's switch finds it, and kindSolo, in two compares.
	kindSnapshot
	kindDirect // Mutex: Vars loaded and stored under the lock
	// kindSolo: a lone client of NOrec or of an invalidation engine. Every
	// read re-checks its stream's timestamp against snap (soloRead), keeps no
	// log, and the slot publishes nothing — no read signature, no active bit,
	// no ALIVE word — so no committer can doom it.
	kindSolo
	// kindInvisible: a shared attempt of the same engines, which publishes
	// nothing either. Each read re-checks its stream's timestamp against snap,
	// and a moved one re-validates the read log at a fresh cut
	// (invisibleRead, Tx.extend).
	kindInvisible
	// kindVisible: the paper's protocol (invalRead). The slot publishes all
	// three, and a committer can doom the attempt.
	kindVisible
)

// attemptKind is the one rule for an attempt's kind; Tx.begin applies it once
// per attempt, and retry reports that the previous attempt failed validation.
// The first attempt of an AtomicallyRO call with Versions is a snapshot one on
// every engine that has versions, unless its cut does not stabilize
// (beginSnapshot); then the rule below applies to it. Otherwise TL2 and Mutex
// have one kind each, as has RInval with servers of its own: the
// paper's protocol, visible on every attempt. Where clients commit themselves
// — NOrec, InvalSTM, and RInval where its servers share the clients' Ps
// (coolServers) — an attempt captures its snapshot into tx.snap here and is
// solo while at most one Thread is registered: no committer but the client
// itself can then invalidate it, so a read log or a read signature would only
// be overhead; a Thread that registers mid-attempt commits through the
// timestamps the attempt re-checks, and a solo commit of an invalidation
// engine still scans the other slots for it. With two or more Threads the
// attempt is invisible, unless the engine has a visible read (baseKind) and
// the attempt retries a validation abort; that retry is visible, as in the
// paper's protocol. NOrec has no visible read, so all its shared attempts are
// invisible. Streams that never stay still long enough for a consistent cut
// make the attempt visible instead.
//
// On a two-client pair-transfer map (container/ds's
// BenchmarkMapContendedPairs) about 90 % of attempts committed undoomed when
// every attempt was visible, and with this rule about a tenth run visible.
// Making the retries invisible too ran about 12 % faster for InvalSTM there;
// the visible retry stays as the one place these engines run the paper's
// invalidation with several Threads (EXPERIMENTS.md, "invisible first").
//
//stm:hotpath
func (s *System) attemptKind(tx *Tx, retry bool) attemptKind {
	switch {
	case s.nVers > 0 && tx.roUser && tx.attempts == 1 && s.beginSnapshot(tx):
		return kindSnapshot
	case !s.clientsCommit:
		return s.baseKind
	case s.nLive.Load() < 2 && s.captureSnapshot(tx.snap):
		return kindSolo
	case !(retry && s.baseKind == kindVisible) && s.captureSnapshot(tx.snap):
		return kindInvisible
	}
	return kindVisible
}

// beginSnapshot publishes a snapshot attempt's history floor and captures its
// cut into tx.snap. Publish the provisional epoch bound, then the roActive
// bit, then capture: roFloorNow reads the timestamps before the bitmap, so a
// floor computation that misses the bit used timestamp values from before
// this point — at or below the provisional bound, and therefore at or below
// every component of the cut (timestamps only grow). One that sees the bit
// honours the published bound directly. A cut that does not stabilize
// (Shards > 1 under a saturated commit pipeline) clears the bit and counts a
// fallback; the attempt then takes the regular rule. Every exit of a snapshot
// attempt clears the bit (deactivateSlot).
func (s *System) beginSnapshot(tx *Tx) bool {
	idx := tx.th.idx
	prov := ^uint64(0)
	for j := range s.streams {
		if t := s.streams[j].ts.Load() &^ 1; t < prov {
			prov = t
		}
	}
	s.roEpoch[idx].Store(prov)
	s.roActive.set(idx)
	if !s.captureSnapshot(tx.snap) {
		s.roActive.clear(idx)
		atomic.AddUint64(&tx.stats.ROFallbacks, 1)
		return false
	}
	// Tighten the published bound to the cut's minimum so GC reclaims up to
	// what this reader really needs. Raising it is safe: the floor takes the
	// minimum over all live readers and the resolve rule never reaches below
	// the cut's component of the Var's own shard.
	minSnap := tx.snap[0]
	for _, e := range tx.snap[1:] {
		if e < minSnap {
			minSnap = e
		}
	}
	s.roEpoch[idx].Store(minSnap)
	return true
}

// Tx is one transaction attempt's view of the world. It is only valid inside
// the Atomically callback that received it.
type Tx struct {
	sys  *System
	th   *Thread
	slot *slot

	rs    readSet
	ws    *writeSet
	start uint64 // TL2: timestamp snapshot

	attempts int
	stats    *Stats
	kind     attemptKind
	// logs makes Tx.LoadBox append every read to rs. The kind decides: an
	// invisible attempt re-validates from the log (Tx.extend), a validated one
	// at commit, and a visible one keeps it under Attribution for the exact-set
	// check on its doom (recordAttribution).
	logs bool

	// reads and writes count the current attempt's Load and Store calls.
	// They are plain fields — a counted read pays no locked instruction —
	// that every attempt exit folds into Stats.Reads/Writes (foldOps). Begin
	// empties the write set, so writes == 0 also tells LoadBox there is no
	// buffered write to look up: a read-only prefix, and every snapshot
	// attempt, skips the write-set lookup.
	reads, writes uint64

	// roUser marks the whole AtomicallyRO call (snapshot attempt and fallback
	// alike): Store panics while it is set. snap is a snapshot, solo or
	// invisible attempt's per-shard epoch vector, allocated once at Register
	// when Versions > 0 or where the engine's clients commit themselves.
	roUser bool
	snap   []uint64

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

// begin resets per-attempt state, chooses the attempt's kind and runs the
// engine's begin hook.
func (tx *Tx) begin() {
	tx.attempts++
	// A second or later attempt follows a failed attempt of this transaction
	// (a snapshot attempt's fallback leaves an empty write set): its write
	// set's cells were never published and become the spares Store reuses.
	// Read before the reset below: that attempt failed validation.
	retry := tx.attempts > 1
	validation := retry && tx.reason == AbortValidation
	tx.rs.reset()
	tx.ws.reset(retry)
	tx.readShards = 0
	tx.reason = AbortInvalidated // engines overwrite at their abort sites
	tx.traceT0 = tx.ring.Now()
	tx.ring.InstantAt(obs.KBegin, tx.traceT0, uint64(tx.attempts))
	if tx.sys.attr != nil {
		tx.pendingRead = 0
		tx.conflictVar = 0
		tx.attrT0 = obs.Now()
	}
	tx.kind = tx.sys.attemptKind(tx, validation)
	tx.logs = tx.kind == kindInvisible || tx.kind == kindValidated ||
		tx.kind == kindVisible && tx.sys.attr != nil
	if tx.kind == kindVisible {
		tx.activateSlot()
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

// run executes the user function, translating a conflictSignal or
// roFallbackSignal panic into conflicted=true. Other panics propagate after
// the engine's resources are released (so e.g. the Mutex engine's global lock
// is not leaked).
func (tx *Tx) run(fn func(*Tx) error) (err error, conflicted bool) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case conflictSignal, roFallbackSignal:
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
// else a published version — aborting (via conflictSignal) on a conflict. The
// attempt's kind picks the read; no engine is asked.
//
// Updates of tx.stats below are atomic adds so System.Stats can read a live
// thread's counters without a data race; the thread is the only writer.
//
//stm:hotpath
func (tx *Tx) LoadBox(v *Var) *Box {
	tx.reads++
	if tx.writes != 0 {
		if b, ok := tx.ws.lookup(v); ok {
			return b
		}
	}
	var b *Box
	var ok bool
	switch tx.kind {
	case kindDirect:
		return v.loadBox()
	case kindSnapshot:
		return tx.loadSnapshot(v)
	case kindSolo:
		b, ok = soloRead(tx, v)
	case kindInvisible:
		b, ok = invisibleRead(tx, v)
	case kindVisible:
		b, ok = invalRead(tx, v)
	default:
		b, ok = tl2Read(tx, v)
	}
	if !ok {
		panic(conflictSignal{})
	}
	if tx.logs {
		tx.rs.add(v, b)
	}
	return b
}

// loadSnapshot resolves v against the attempt's epoch snapshot: the newest
// committed version at or below the snapshot component of v's shard. No read
// filter, no read log, no slot state — nothing a committer could scan or
// doom. A miss (history trimmed or lapped under the reader) fails the attempt
// with roFallbackSignal; its retry takes the regular rule.
//
//stm:hotpath
func (tx *Tx) loadSnapshot(v *Var) *Box {
	e := tx.snap[tx.sys.shardOf(v)]
	if h := v.loadBox(); h.epoch <= e {
		return h // versionAt's head fast path, without the call
	}
	b, ok := v.versionAt(e)
	if !ok {
		panic(roFallbackSignal{})
	}
	return b
}

// Store is StoreBox through the any API, in a spare cell when there is one.
func (tx *Tx) Store(v *Var, val any) {
	b := tx.SpareBox(v)
	if b == nil {
		b = newAnyCell(val)
	} else {
		anyOf(b).v = val
	}
	tx.StoreBox(v, b)
}

// SpareBox returns a cell that an aborted attempt of this transaction buffered
// for v and never published, or nil. The caller overwrites its value and
// passes it to StoreBox; each spare is handed out once. The first attempt of a
// transaction has none and pays one length test, inlined into the caller.
//
//stm:hotpath
func (tx *Tx) SpareBox(v *Var) *Box {
	if len(tx.ws.spares) == 0 {
		return nil
	}
	return tx.ws.spare(v)
}

// StoreBox buffers b as v's next version; it becomes visible atomically at
// commit. b must be a cell of v's cell type that the caller gives up: a fresh
// one, or a spare from SpareBox.
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
			if tx.kind == kindSnapshot {
				atomic.AddUint64(&tx.stats.ROCommits, 1)
			}
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
// the per-reason counter keeps the taxonomy in lockstep with Aborts. A
// snapshot attempt's fallback is no conflict: it counts in ROFallbacks only,
// and leaves tx.reason at begin's value, so its retry is not a validation
// abort's.
func (tx *Tx) onConflictAbort() {
	tx.sys.eng.abort(tx)
	tx.deactivateSlot()
	tx.ring.Span(obs.KTx, tx.traceT0, obs.OutcomeAbort)
	if tx.kind == kindSnapshot {
		atomic.AddUint64(&tx.stats.ROFallbacks, 1)
	} else {
		atomic.AddUint64(&tx.stats.Aborts, 1)
		atomic.AddUint64(&tx.stats.AbortReasons[tx.reason], 1)
		tx.ring.Instant(obs.KAbort, uint64(tx.reason))
		if a := tx.sys.attr; a != nil {
			tx.recordAttribution(a)
		}
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
// one that misses it can rely on the transaction having retired. Only a
// visible attempt published anything to undo, and a snapshot one its roActive
// bit.
func (tx *Tx) deactivateSlot() {
	switch tx.kind {
	case kindVisible:
		w := tx.slot.status.Load()
		tx.slot.status.Store((w &^ statusBits) | txInactive)
		tx.sys.active.clear(tx.th.idx)
	case kindSnapshot:
		tx.sys.roActive.clear(tx.th.idx)
	}
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
