package core

import (
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// norecEngine implements NOrec (Dalessandro, Spear, Scott — PPoPP 2010): a
// single global sequence lock, lazy write buffering, and value-based
// incremental validation. It is the paper's validation-based competitor.
//
// The cost structure the paper analyzes (§III): every read that observes a
// timestamp change triggers a full read-set revalidation, so the total
// validation work of a transaction is quadratic in its read-set size under
// write contention. Commit is cheap — one CAS, write-back, one store — but
// all committers spin on the same timestamp word, which on real hardware
// turns into cache-line ping-pong (modeled in internal/sim).
type norecEngine struct {
	sys *System
}

func (e *norecEngine) usesSlots() bool      { return false }
func (e *norecEngine) readsInvisibly() bool { return false }

// begin snapshots an even timestamp — the transaction's linearization basis.
func (e *norecEngine) begin(tx *Tx) {
	tx.start = e.sys.waitEven()
}

// read returns a value consistent with tx.start, extending the snapshot via
// revalidation whenever the global timestamp moved. It is also an invisible
// InvalSTM attempt's read (invalEngine.read), which logs the cell itself.
//
//stm:hotpath
func (e *norecEngine) read(tx *Tx, v *Var) (*Box, bool) {
	for {
		b := v.loadBox()
		if e.sys.streams[0].ts.Load() == tx.start {
			return b, true
		}
		// Timestamp moved: some transaction committed since our snapshot.
		// Re-establish a consistent snapshot by value-validating the whole
		// read set (this is the incremental-validation quadratic term).
		t, ok := e.revalidate(tx)
		if !ok {
			return nil, false
		}
		tx.start = t
	}
}

// revalidate re-checks every read against the current memory state and
// returns a new even timestamp at which the read set was observed intact.
// A value mismatch is a validation abort (tx.reason).
//
//stm:hotpath
func (e *norecEngine) revalidate(tx *Tx) (uint64, bool) {
	var w spin.Waiter
	tv := tx.ring.Now()
	for {
		t := e.sys.waitEven()
		atomic.AddUint64(&tx.stats.Validations, 1)
		var ops uint64
		ok := true
		for i := range tx.rs.entries {
			re := &tx.rs.entries[i]
			ops++
			if re.v.loadBox() != re.snap {
				tx.conflictVar = re.v.id // attribution: the mismatched read
				ok = false
				break
			}
		}
		atomic.AddUint64(&tx.stats.ValidationOps, ops)
		if !ok {
			tx.reason = AbortValidation
			tx.ring.Span(obs.KValidate, tv, ops)
			return 0, false
		}
		if e.sys.streams[0].ts.Load() == t {
			tx.ring.Span(obs.KValidate, tv, ops)
			return t, true
		}
		w.Wait()
	}
}

// lock acquires the sequence lock with a CAS from the transaction's
// snapshot; success proves no commit intervened, so no commit-time validation
// is needed. On CAS failure the snapshot is extended and the acquisition
// retried; false is a validation abort. The caller writes back and releases
// with tx.start+2. NOrec's commit and an invisible InvalSTM attempt's share it.
//
//stm:hotpath
func (e *norecEngine) lock(tx *Tx) bool {
	for !e.sys.streams[0].ts.CompareAndSwap(tx.start, tx.start+1) {
		t, ok := e.revalidate(tx)
		if !ok {
			return false
		}
		tx.start = t
	}
	return true
}

// commit locks from the snapshot, writes back and releases.
//
//stm:hotpath
func (e *norecEngine) commit(tx *Tx) bool {
	if tx.ws.len() == 0 {
		// Read-only: the read set is valid at tx.start by construction.
		return true
	}
	if !e.lock(tx) {
		return false
	}
	e.sys.writeBack(tx.ws)
	e.sys.streams[0].ts.Store(tx.start + 2)
	return true
}

func (e *norecEngine) abort(tx *Tx) {}

func (e *norecEngine) serverTasks() []serverTask { return nil }

func (e *norecEngine) serverStats() Stats { return Stats{} }
