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
//
// NOrec's clients commit themselves, so its attempts follow InvalSTM's rule
// (System.attemptKind) without the visible retry: a lone Thread's attempt is
// solo — soloRead, no read log, a moved timestamp a validation abort — and a
// shared one invisible — invisibleRead, revalidation by Tx.extend. Either
// locks the global timestamp by one CAS from the snapshot (Tx.lockTouched),
// the same code InvalSTM runs. The snapshot is taken by System.attemptKind.
type norecEngine struct {
	sys *System
}

func (e *norecEngine) begin(tx *Tx) {}

// commit locks the global timestamp from the snapshot, writes back and
// releases, through InvalSTM's lockTouched and releaseTouched.
//
//stm:hotpath
func (e *norecEngine) commit(tx *Tx) bool {
	if tx.ws.len() == 0 {
		// Read-only: the read set is valid at the snapshot by construction.
		return true
	}
	if !tx.lockTouched(1) {
		return false
	}
	e.sys.writeBack(tx.ws)
	e.sys.releaseTouched(1, 1)
	return true
}

func (e *norecEngine) abort(tx *Tx) {}

// invisibleRead is an invisible attempt's read, NOrec's with two or more
// Threads and a shared invalidation-engine attempt's, called by Tx.LoadBox,
// which logs the cell: load the cell, then re-load its stream's timestamp.
// Still the snapshot's, no write-back ran on the stream since the snapshot —
// every write-back runs while the timestamp is odd — so the cell is the
// snapshot's. Moved, the attempt re-validates its log at a fresh cut
// (extend) and loads again.
//
//stm:hotpath
func invisibleRead(tx *Tx, v *Var) (*Box, bool) {
	shard := tx.sys.shardOf(v)
	for {
		b := v.loadBox()
		if tx.sys.streams[shard].ts.Load() == tx.snap[shard] {
			tx.readShards |= 1 << uint(shard)
			return b, true
		}
		if !tx.extend() {
			return nil, false
		}
	}
}

// extend moves an invisible attempt's snapshot to a fresh consistent cut: read
// every stream's timestamp, all even, re-validate the read log by cell identity
// against memory, and re-read the timestamps. Unchanged, no write-back ran on
// any stream while the log was checked, so every logged cell was current at
// one instant of that window, which the cut names; each later read that finds
// its stream still at the cut returns a cell of the same instant. A logged Var
// whose cell changed is a validation abort. This is NOrec's incremental
// validation, the quadratic term of its cost.
//
//stm:hotpath
func (tx *Tx) extend() bool {
	streams := tx.sys.streams
	var w spin.Waiter
	tv := tx.ring.Now()
	for {
		even := true
		for j := range streams {
			t := streams[j].ts.Load()
			if t&1 != 0 {
				even = false
				break
			}
			tx.snap[j] = t
		}
		if even {
			if !tx.logValid() {
				tx.reason = AbortValidation
				tx.ring.Span(obs.KValidate, tv, uint64(len(tx.rs.entries)))
				return false
			}
			held := true
			for j := range streams {
				if streams[j].ts.Load() != tx.snap[j] {
					held = false
					break
				}
			}
			if held {
				tx.ring.Span(obs.KValidate, tv, uint64(len(tx.rs.entries)))
				return true
			}
		}
		w.Wait()
	}
}

// logValid reports whether every Var in the read log still holds the cell
// the attempt read, counting one validation and its comparisons. A mismatch
// names its Var for attribution.
//
//stm:hotpath
func (tx *Tx) logValid() bool {
	atomic.AddUint64(&tx.stats.Validations, 1)
	var ops uint64
	ok := true
	for i := range tx.rs.entries {
		re := &tx.rs.entries[i]
		ops++
		if re.v.loadBox() != re.snap {
			tx.conflictVar = re.v.id
			ok = false
			break
		}
	}
	atomic.AddUint64(&tx.stats.ValidationOps, ops)
	return ok
}

// lockFromSnapshot raises stream j's timestamp odd for an invisible attempt
// with a CAS from its snapshot: success proves no commit intervened on the
// stream, so no commit-time validation is needed. On CAS failure the snapshot
// is extended and the acquisition retried; false is a validation abort.
// Tx.lockTouched's caller writes back and lowers the timestamp to the next
// even value. NOrec and InvalSTM lock stream 0, the global timestamp.
//
//stm:hotpath
func (tx *Tx) lockFromSnapshot(j int) bool {
	ts := &tx.sys.streams[j].ts
	for !ts.CompareAndSwap(tx.snap[j], tx.snap[j]+1) {
		if !tx.extend() {
			return false
		}
	}
	return true
}
