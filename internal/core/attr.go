package core

import (
	"sort"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// Conflict attribution (Config.Attribution) answers "who aborted whom, over
// which data, at what cost" — the questions the abort taxonomy alone cannot.
//
// The mechanism is victim-side recording with a committer-published killer
// descriptor. Invalidation is asynchronous: the committer (or a server acting
// for it) dooms a victim with a status-word CAS and moves on, while the
// victim only learns of the doom at its next read or commit attempt. The
// victim's abort path is therefore the one place where exactly one event per
// abort happens — recording there keeps every total exact, and keeps all
// attribution cost off the committer's critical path (the paper's whole
// point is keeping that path short). The committer's only contribution is
// publishing a killDesc pointer into the victim's slot immediately before
// the doom CAS; the victim reads it back while rolling back.
//
// The descriptor race is accepted as best-effort: two committers may doom
// candidates concurrently, and a loser's descriptor can overwrite the
// winner's before the victim looks. Attribution then charges the wrong
// committer row (or the unknown row when the victim's begin already cleared
// the pointer), but never changes the matrix total — the victim increments
// exactly one cell per invalidation abort regardless.

// killDesc identifies the commit that doomed a victim. Immutable once
// published (victims read it concurrently with later commits).
type killDesc struct {
	// committer is the request-slot index of the doomer — for a group-commit
	// epoch, the batch leader.
	committer int
	// writeIDs, non-nil on a deterministic 1-in-AttrSampleEvery sample of
	// commits, is the commit's exact sorted write-set Var ids. A doomed
	// victim intersects its exact read log against it to classify the doom
	// as a true conflict or a bloom false positive, and to harvest the
	// conflicting Var ids for hot-var sampling. Freshly allocated per
	// sampled commit so it can outlive the committer's write-set reuse.
	writeIDs []uint64
}

// attrKillDesc returns the descriptor for this thread's next inline commit
// (InvalSTM): the cached unsampled descriptor, or — every AttrSampleEvery-th
// writer commit — a fresh one carrying the exact write ids.
func (tx *Tx) attrKillDesc() *killDesc {
	tx.attrSeq++
	if int(tx.attrSeq%uint64(tx.sys.cfg.AttrSampleEvery)) != 0 {
		return tx.attrKD
	}
	return &killDesc{committer: tx.th.idx, writeIDs: sortedWriteIDs(tx.ws)}
}

// sortedWriteIDs returns ws's Var ids sorted ascending — the shape contains
// needs. Always a fresh allocation: descriptor payloads must not be reused
// while victims may still read them.
func sortedWriteIDs(ws *writeSet) []uint64 {
	ids := make([]uint64, 0, len(ws.entries))
	for i := range ws.entries {
		ids = append(ids, ws.entries[i].v.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// attrReservoirSize is the per-slot hot-var reservoir capacity (uniform
// sample of conflicting Var ids).
const attrReservoirSize = 128

// epochKillDesc returns the killer descriptor for this shard commit-server's
// current epoch: the batch leader as the representative committer and — on
// every AttrSampleEvery-th epoch — the exact merged write ids of the whole
// batch (the invalidation scan tests the merged signature, so the exact
// check must test the merged set). Stream-lock-holder-owned; called once per
// epoch after doomed members have been filtered out of batchIdx.
func (sv *shardServer) epochKillDesc() *killDesc {
	sv.attrEpochs++
	kd := &killDesc{committer: sv.batchIdx[0]}
	if int(sv.attrEpochs%uint64(sv.sys.cfg.AttrSampleEvery)) == 0 {
		var ids []uint64
		for _, j := range sv.batchIdx {
			ws := sv.sys.slots[j].req.ws
			for i := range ws.entries {
				ids = append(ids, ws.entries[i].v.id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		kd.writeIDs = ids
	}
	return kd
}

// contains reports whether sorted ids contains id.
//
//stm:hotpath
func contains(ids []uint64, id uint64) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// recordAttribution is the victim-side attribution hook, called from every
// conflict-abort path when Config.Attribution is on. It charges the abort to
// the killer (matrix + wasted work), runs the sampled exact-set check that
// classifies bloom false positives, and feeds conflicting Var ids to the
// hot-var reservoir.
//
//stm:hotpath
func (tx *Tx) recordAttribution(a *obs.Attribution) {
	victim := tx.th.idx
	ns := uint64(obs.Now() - tx.attrT0)
	ops := tx.reads + tx.writes // the attempt's own counts, not yet folded

	committer := a.Unknown()
	if tx.reason == AbortInvalidated && tx.kind == kindVisible {
		if kd := tx.slot.killer.Load(); kd != nil {
			committer = kd.committer
			if kd.writeIDs != nil {
				// Sampled commit: the exact read-set ∩ write-set check. The
				// read log holds every completed read (logReads is forced on
				// under attribution); pendingRead covers a read doomed before
				// Tx.Load could log it.
				hits := 0
				for i := range tx.rs.entries {
					if id := tx.rs.entries[i].v.id; contains(kd.writeIDs, id) {
						a.OfferVar(victim, id)
						hits++
					}
				}
				if tx.pendingRead != 0 && contains(kd.writeIDs, tx.pendingRead) {
					a.OfferVar(victim, tx.pendingRead)
					hits++
				}
				a.RecordFPCheck(victim, hits == 0)
			}
		}
	} else if tx.conflictVar != 0 {
		// Validation/locked aborts name the conflicting Var directly at the
		// abort site (NOrec value mismatch, TL2 version/lock failure).
		a.OfferVar(victim, tx.conflictVar)
	}
	a.RecordAbort(committer, victim, tx.reason, ns, ops)
}

// ConflictReport returns the attribution snapshot: who-aborted-whom matrix,
// wasted work per abort reason, bloom false-positive estimate, and the top-K
// hot-var table, alongside the Stats totals it was built from. Safe to call
// while transactions run (counters are read atomically, the snapshot is not
// a single instant); Enabled is false when Config.Attribution is off.
func (s *System) ConflictReport() obs.ConflictReport {
	st := s.Stats()
	return s.attr.Report(obs.ReportMeta{
		Commits:      st.Commits,
		Aborts:       st.Aborts,
		ReadOnly:     st.ReadOnly,
		ROCommits:    st.ROCommits,
		ROFallbacks:  st.ROFallbacks,
		AbortReasons: st.AbortReasons,
		FilterBits:   s.cfg.Bloom.Bits,
		NameOf:       VarName,
	})
}
