package core

import (
	"math/bits"
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// InvalSTM-style commit-time invalidation (the paper's Algorithm 1, after
// Gottschlich et al., CGO 2010). Reads are linear-time — each read checks only
// the global timestamp and the transaction's own status flag — but the entire
// invalidation scan runs inside the commit critical section, inflating lock
// hold time. This is the imbalance RInval removes (§III). Below four Ps it is
// how RInval commits too.
//
// With another Thread registered, an attempt first runs invisible (Tx.begin,
// DESIGN.md §3): NOrec's read (invisibleRead), lock (Tx.lockFromSnapshot) and
// the commit's invalidation scan, so the other Thread's visible attempts are
// still doomed. Only the retry of a validation abort can be doomed.

// invalRead is Algorithm 1's READ, a visible attempt's read for InvalSTM and
// the RInval engines, called by Tx.LoadBox and applied against the stream
// that owns v's shard (with Shards == 1 that is the global timestamp, exactly
// the paper's protocol): load the value inside a stable even window of the
// timestamp, publish the read-filter bit before the stability re-check, then
// verify this transaction has not been invalidated. Where the stream has partitions (RInvalV2/V3 at four Ps or
// more) the reader's own partition must also have processed every prior
// commit (Algorithm 3, line 28): only then is "my status flag is still ALIVE"
// proof that no prior commit conflicted. Without them every commit dooms
// inline before its write-back, so the reader never waits. Time spent
// blocked — on an odd timestamp, a lagging partition, or an unstable window —
// is recorded as a read-wait trace span.
//
//stm:hotpath
func invalRead(tx *Tx, v *Var) (*Box, bool) {
	sys := tx.sys
	shard := sys.shardOf(v)
	st := &sys.streams[shard]
	partitioned := sys.nInvalPerShard > 0
	var w spin.Waiter
	var tw int64 // trace timestamp of the first blocked sample, if any
	for {
		t0 := st.ts.Load()
		if t0&1 == 1 || (partitioned && st.invalTS[tx.slot.invalServer].Load() < t0) {
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

// soloRead is a solo attempt's read, NOrec's and every invalidation engine's,
// called by Tx.LoadBox. It validates as invisibleRead does, with no log to
// extend over: load the cell, then re-load its stream's timestamp. Still the
// snapshot's, it proves no commit wrote the stream since begin — every
// write-back runs while the timestamp is odd — so the cell is the snapshot's;
// moved, the attempt aborts without returning it. The shard joins readShards,
// which the solo commit validates under the locks. On a one-stream System a
// read before the attempt's first Store is resolvedRead instead.
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

// resolvedRead is soloRead on a one-stream System before the attempt's first
// Store, called by Tx.LoadBox: begin resolved stream 0's timestamp word and
// its snapshot value (Tx.soloTS, Tx.soloSnap), so the read is the cell load
// and one compare. It leaves readShards alone: with one stream every writer
// touches stream 0, so the bit adds nothing to the commit's touched mask.
//
//stm:hotpath
func resolvedRead(tx *Tx, v *Var) (*Box, bool) {
	b := v.loadBox()
	if tx.soloTS.Load() != tx.soloSnap {
		tx.reason = AbortValidation
		return nil, false
	}
	return b, true
}

// inlineCommit implements Algorithm 1's COMMIT over the streams a writer
// touched (stream 0 alone for NOrec and InvalSTM), called by Tx.finishCommit;
// it is every writer commit where clients commit themselves
// (System.clientsCommit), RInval's below four Ps too. Lock and validate
// (lockTouched), invalidate every conflicting visible attempt but its own —
// only where the engine has a visible read, so not NOrec's — write back,
// release (releaseTouched). A solo writer finds no visible attempt to doom (a
// Thread registered mid-attempt turns visible only after a validation abort,
// which moves a timestamp the solo attempt checks), but the scan keeps one
// rule for every commit. An RInval commit is an epoch of its lowest touched
// stream, counted on that stream's timestamp line while it holds it, and a
// helped one: the client drove it.
//
//stm:hotpath
func inlineCommit(tx *Tx) bool {
	sys := tx.sys
	writes := tx.ws.shards(sys.shardMask)
	touched := writes | tx.readShards
	if !tx.lockTouched(touched) {
		return false
	}
	if sys.baseKind == kindVisible {
		var kd *killDesc
		if sys.attr != nil {
			kd = tx.attrKillDesc()
		}
		// Most scans doom nobody (every lone client's): add only a count.
		if n := sys.invalidate(sys.allSlots, tx.slot.selfMask, tx.ws.bf, tx.ring, kd); n > 0 {
			atomic.AddUint64(&tx.stats.Invalidations, n)
		}
	}
	sys.writeBack(tx.ws)
	if sys.rinval != nil {
		lead := &sys.streams[bits.TrailingZeros64(touched)]
		lead.epochs.Add(1)
		if touched&(touched-1) != 0 {
			lead.crossShard.Add(1)
		}
		atomic.AddUint64(&tx.stats.HelpedEpochs, 1)
	}
	sys.releaseTouched(touched, writes)
	return true
}

// lockTouched raises the timestamp of every stream in touched odd, in
// ascending order, and validates the attempt under them; false is an abort
// with tx.reason set and no stream held. On one stream a solo attempt takes it
// by a CAS from its snapshot (no commit ran since begin), an invisible one by
// the same CAS, extending on failure (lockFromSnapshot). Otherwise each
// timestamp is taken once even; then a moved one refuses a solo attempt (no
// log) and makes an invisible one re-validate its log — conclusively, as every
// logged Var lies on a held stream — and a visible one re-checks its ALIVE
// word (Algorithm 1's check under the lock: a commit between its last read
// and the lock may have doomed it).
//
//stm:hotpath
func (tx *Tx) lockTouched(touched uint64) bool {
	sys := tx.sys
	if touched&(touched-1) == 0 && tx.kind != kindVisible {
		j := bits.TrailingZeros64(touched)
		if tx.kind == kindInvisible {
			return tx.lockFromSnapshot(j)
		}
		tx.reason = AbortValidation
		return sys.streams[j].ts.CompareAndSwap(tx.snap[j], tx.snap[j]+1)
	}
	if tx.kind == kindVisible && tx.invalidated() {
		tx.reason = AbortInvalidated
		return false
	}
	moved := false
	for m := touched; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if sys.lockTimestamp(j) != tx.snap[j] {
			moved = true
		}
	}
	var ok bool
	switch tx.kind {
	case kindVisible:
		ok, tx.reason = !tx.invalidated(), AbortInvalidated
	case kindSolo:
		ok, tx.reason = !moved, AbortValidation
	default:
		ok, tx.reason = !moved || tx.logValid(), AbortValidation
	}
	if !ok {
		sys.releaseTouched(touched, 0)
	}
	return ok
}
