package core

import (
	"sort"

	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// tl2Engine implements TL2 (Dice, Shalev, Shavit — DISC 2006): fine-grained
// concurrency control with one versioned write-lock per Var and a global
// version clock.
//
// The paper positions this design point against its coarse-grained family
// (§I, §III): per-location locks reduce false conflicts and let disjoint
// commits proceed in parallel, at the cost of per-location metadata, CAS
// traffic proportional to write-set size, and the loss of the properties the
// coarse family gets for free (trivial privatization safety, single-point
// HTM integration). It is included as a baseline for the ablations.
//
// Protocol: a transaction snapshots the clock at begin (rv). A read is valid
// when the location is unlocked and its version is at most rv, sampled
// stably around the value load. Commit locks the write set in id order
// (bounded spinning, then abort — no deadlock possible given the total
// order), increments the clock to obtain wv, revalidates the read set,
// publishes the writes, and releases each lock with version wv.
type tl2Engine struct {
	sys *System
}

// tl2Locked reports whether a verlock word is held.
func tl2Locked(w uint64) bool { return w&1 == 1 }

// tl2Version extracts the commit version from a verlock word.
func tl2Version(w uint64) uint64 { return w >> 1 }

// tl2LockSpins bounds how long a reader or committer waits on a held
// lock before aborting; lock holders finish quickly, but a bounded wait
// keeps the engine abort-based rather than blocking.
const tl2LockSpins = 128

// begin samples the read version.
func (e *tl2Engine) begin(tx *Tx) {
	tx.start = e.sys.streams[0].ts.Load()
}

// tl2Read is a validated attempt's read, called by Tx.LoadBox: v's value if
// it is committed no later than the transaction's read version. TL2 does not
// extend snapshots: a newer version aborts.
//
//stm:hotpath
func tl2Read(tx *Tx, v *Var) (*Box, bool) {
	var w spin.Waiter
	var tw int64 // trace timestamp of the first blocked sample, if any
	for i := 0; ; i++ {
		w1 := v.verlock.Load()
		if tl2Locked(w1) {
			if tw == 0 {
				tw = tx.ring.Now()
			}
			if i >= tl2LockSpins {
				tx.reason = AbortLocked
				tx.conflictVar = v.id
				tx.ring.Span(obs.KReadWait, tw, v.id)
				return nil, false
			}
			w.Wait()
			continue
		}
		if tw != 0 {
			tx.ring.Span(obs.KReadWait, tw, v.id)
			tw = 0
		}
		b := v.loadBox()
		if v.verlock.Load() != w1 {
			continue // writer intervened; resample
		}
		if tl2Version(w1) > tx.start {
			tx.reason = AbortValidation
			tx.conflictVar = v.id
			return nil, false // too new for our snapshot
		}
		return b, true
	}
}

// commit locks the write set in id order, validates the read set against
// the snapshot, publishes, and releases at the new version.
//
//stm:hotpath
func (e *tl2Engine) commit(tx *Tx) bool {
	if tx.ws.len() == 0 {
		return true
	}
	// Deterministic global acquisition order prevents deadlock between
	// committers with overlapping write sets.
	order := make([]*writeEntry, len(tx.ws.entries))
	for i := range tx.ws.entries {
		order[i] = &tx.ws.entries[i]
	}
	sort.Slice(order, func(i, j int) bool { return order[i].v.id < order[j].v.id })

	locked := 0
	release := func() {
		for _, we := range order[:locked] {
			// Restore the pre-lock word (version unchanged, lock cleared).
			w := we.v.verlock.Load()
			we.v.verlock.Store(w &^ 1)
		}
	}
	for _, we := range order {
		var w spin.Waiter
		acquired := false
		for i := 0; i < tl2LockSpins; i++ {
			cur := we.v.verlock.Load()
			if !tl2Locked(cur) {
				if we.v.verlock.CompareAndSwap(cur, cur|1) {
					acquired = true
					break
				}
				continue
			}
			w.Wait()
		}
		if !acquired {
			tx.reason = AbortLocked
			tx.conflictVar = we.v.id
			release()
			return false
		}
		locked++
	}

	wv := e.sys.streams[0].ts.Add(1)

	// Validate the read set: every location must be unlocked (or locked by
	// us, i.e. in our write set) and unchanged since the snapshot.
	for i := range tx.rs.entries {
		re := &tx.rs.entries[i]
		w := re.v.verlock.Load()
		if tl2Version(w) > tx.start {
			tx.reason = AbortValidation
			tx.conflictVar = re.v.id
			release()
			return false
		}
		if tl2Locked(w) {
			if _, mine := tx.ws.lookup(re.v); !mine {
				tx.reason = AbortValidation
				tx.conflictVar = re.v.id
				release()
				return false
			}
		}
	}

	// Publish and unlock at the commit version.
	for _, we := range order {
		we.v.storeBox(we.b)
		we.v.verlock.Store(wv << 1)
	}
	return true
}

func (e *tl2Engine) abort(tx *Tx) {}
