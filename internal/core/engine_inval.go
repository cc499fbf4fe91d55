package core

import (
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// invalEngine implements InvalSTM-style commit-time invalidation (the
// paper's Algorithm 1, after Gottschlich et al., CGO 2010). Reads are
// linear-time — each read checks only the global timestamp and the
// transaction's own status flag — but the entire invalidation scan runs
// inside the commit critical section, inflating lock hold time. This is the
// imbalance RInval removes (§III).
//
// With another Thread registered, an attempt first runs invisible (Tx.begin,
// DESIGN.md §3): it is NOrec's attempt — norec's read, revalidation and
// locking CAS over tx.start and the read log — plus the commit's invalidation
// scan, so the other Thread's visible attempts are still doomed. Only the
// retry of a validation abort publishes its reads and can be doomed.
type invalEngine struct {
	sys   *System
	norec norecEngine
}

func (e *invalEngine) usesSlots() bool      { return true }
func (e *invalEngine) readsInvisibly() bool { return true }

func (e *invalEngine) begin(tx *Tx) {
	if tx.invisible {
		e.norec.begin(tx)
	}
}

// read implements Algorithm 1's READ for a visible attempt: load the value
// inside a stable even window of the global timestamp, publish the
// read-filter bit before the stability re-check, then verify this
// transaction has not been invalidated. An invisible attempt reads as NOrec
// does and logs the cell, unless Tx.LoadBox already logs every read.
//
//stm:hotpath
func (e *invalEngine) read(tx *Tx, v *Var) (*Box, bool) {
	if tx.invisible {
		b, ok := e.norec.read(tx, v)
		if ok && !e.sys.logReads {
			tx.rs.add(v, b)
		}
		return b, ok
	}
	return invalRead(tx, v, false)
}

// invalRead is the read protocol shared by InvalSTM and the RInval engines,
// applied against the stream that owns v's shard (with Shards == 1 that is
// the global timestamp, exactly the paper's protocol). waitCaughtUp adds the
// RInvalV2/V3 requirement that the reader's own invalidation-server for that
// stream has processed every prior commit (Algorithm 3, line 28). Time spent
// blocked — on an odd timestamp, a lagging server, or an unstable window —
// is recorded as a read-wait trace span. This is a visible attempt's read: a
// solo one never gets here (Tx.LoadBox calls soloRead), and an invisible one
// reads as NOrec does (invalEngine.read).
//
//stm:hotpath
func invalRead(tx *Tx, v *Var, waitCaughtUp bool) (*Box, bool) {
	sys := tx.sys
	shard := sys.shardOf(v)
	st := &sys.streams[shard]
	var w spin.Waiter
	var tw int64 // trace timestamp of the first blocked sample, if any
	for {
		t0 := st.ts.Load()
		if t0&1 == 1 || (waitCaughtUp && st.invalTS[tx.slot.invalServer].Load() < t0) {
			if tw == 0 {
				tw = tx.ring.Now()
			}
			w.Wait()
			continue
		}
		b := v.loadBox()
		// Publish the read-filter bit before confirming stability: any
		// committer whose timestamp transition we fail to observe below is
		// ordered after this OR (sequential consistency), so its
		// invalidation scan will see the bit.
		tx.slot.readBF.AddKey(v.key)
		if st.ts.Load() != t0 {
			if tw == 0 {
				tw = tx.ring.Now()
			}
			w.Wait()
			continue
		}
		if tw != 0 {
			tx.ring.Span(obs.KReadWait, tw, v.id)
		}
		// Record the shard this read ordered against: the commit request's
		// touched mask must cover read-only shards too (see Tx.readShards).
		tx.readShards |= 1 << uint(shard)
		if tx.invalidated() {
			tx.reason = AbortInvalidated
			// This read is not in the log yet (Tx.Load appends only on
			// success); remember its Var so the sampled exact-set check sees
			// the full read set.
			tx.pendingRead = v.id
			return nil, false
		}
		return b, true
	}
}

// soloRead is a solo attempt's read for every invalidation engine, called by
// Tx.LoadBox without the engine dispatch. It validates as NOrec does: load the
// cell, then re-load its stream's timestamp. Still the snapshot's, it proves
// no commit wrote the stream since begin — every write-back runs while the
// timestamp is odd — so the cell is the snapshot's; moved, the attempt aborts
// without returning it. The shard joins readShards, which the solo commit
// validates under the locks.
//
//stm:hotpath
func soloRead(tx *Tx, v *Var) (*Box, bool) {
	shard := tx.sys.shardOf(v)
	b := v.loadBox()
	if tx.sys.streams[shard].ts.Load() != tx.snap[shard] {
		tx.reason = AbortValidation
		return nil, false
	}
	tx.readShards |= 1 << uint(shard)
	return b, true
}

// commit implements Algorithm 1's COMMIT: acquire the global sequence lock
// with a CAS, re-check the status flag (a commit may have doomed us between
// the request and the acquisition), invalidate every conflicting in-flight
// transaction, publish the write set, and release. A solo attempt acquires
// the lock with one CAS from its snapshot, which succeeds only if no commit
// ran since its begin. An invisible attempt acquires it as NOrec does,
// extending its snapshot on a failed CAS. Every writer scans the other slots;
// a solo one finds no visible attempt there (a Thread registered mid-attempt
// turns visible only after a validation abort, which takes a commit that fails
// the solo CAS), but the scan keeps one rule for every commit.
//
//stm:hotpath
func (e *invalEngine) commit(tx *Tx) bool {
	sys := e.sys
	if tx.ws.len() == 0 {
		// Read-only: every returned value was consistent when read, and
		// nothing remains to serialize.
		return true
	}
	var t uint64
	switch {
	case tx.solo:
		t = tx.snap[0]
		if !sys.streams[0].ts.CompareAndSwap(t, t+1) {
			tx.reason = AbortValidation
			return false
		}
	case tx.invisible:
		if !e.norec.lock(tx) {
			return false
		}
		t = tx.start
	default:
		if tx.invalidated() {
			tx.reason = AbortInvalidated
			return false
		}
		var w spin.Waiter
		for {
			t = sys.streams[0].ts.Load()
			if t&1 == 0 && sys.streams[0].ts.CompareAndSwap(t, t+1) {
				break
			}
			w.Wait()
		}
		// Re-check after acquisition (Algorithm 1 checks the flag under the
		// lock): a commit serialized between our last read and the CAS may
		// have invalidated us.
		if tx.invalidated() {
			tx.reason = AbortInvalidated
			sys.streams[0].ts.Store(t) // release without publishing anything
			return false
		}
	}
	var kd *killDesc
	if sys.attr != nil {
		kd = tx.attrKillDesc()
	}
	atomic.AddUint64(&tx.stats.Invalidations, sys.invalidate(sys.allSlots, tx.slot.selfMask, tx.ws.bf, tx.ring, kd))
	sys.writeBack(tx.ws)
	sys.streams[0].ts.Store(t + 2)
	return true
}

func (e *invalEngine) abort(tx *Tx) {}

func (e *invalEngine) serverTasks() []serverTask { return nil }

func (e *invalEngine) serverStats() Stats { return Stats{} }
