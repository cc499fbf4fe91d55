package core

import (
	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/padded"
)

// readEntry records one transactional read: the Var and the version observed.
// NOrec revalidates by comparing the Var's current version pointer against
// snap; the invalidation engines keep the log only when stats are enabled.
type readEntry struct {
	v    *Var
	snap *Box
}

// readSet is an append-only log of the transaction's reads. It is reused
// across transactions on the same thread to amortize allocation.
type readSet struct {
	entries []readEntry
}

func (rs *readSet) add(v *Var, snap *Box) {
	rs.entries = append(rs.entries, readEntry{v: v, snap: snap})
}

func (rs *readSet) reset() {
	// Zero the recorded entries before truncating: entries[:0] alone keeps
	// the *Var/*Box pointers reachable through the backing array, pinning
	// retired data structures for as long as this thread lives.
	clear(rs.entries)
	rs.entries = rs.entries[:0]
}

func (rs *readSet) len() int { return len(rs.entries) }

// writeEntry is one buffered write: the target Var and the version to
// publish at commit.
type writeEntry struct {
	v *Var
	b *Box
}

// wsetMapThreshold is the write-set size beyond which lookups switch from
// linear scan to a map. Most transactions write a handful of locations, where
// a scan over a compact slice beats map hashing.
const wsetMapThreshold = 12

// writeSet buffers a transaction's writes (lazy versioning) together with
// their bloom signature. The slice preserves program order so write-back is
// deterministic; idx accelerates read-after-write lookups for large sets.
//
// spares are the entries of this transaction's last conflict-aborted attempt
// that wrote anything (reset): cells never published, which spare hands back
// to the retry's stores, each once.
//
// Every Thread's write set is allocated at Register, so two clients' headers
// tend to sit side by side on the heap, and each Store writes its own; the
// trailing line of padding keeps one header off the other's cache line.
type writeSet struct {
	entries []writeEntry
	idx     map[*Var]int
	bf      *bloom.Filter
	spares  []writeEntry
	_       [padded.CacheLineSize]byte
}

func newWriteSet(p bloom.Params) *writeSet {
	return &writeSet{bf: bloom.NewFilter(p)}
}

// find returns the index of v's entry, if it has one.
func (ws *writeSet) find(v *Var) (int, bool) {
	if ws.idx != nil {
		i, ok := ws.idx[v]
		return i, ok
	}
	for i := len(ws.entries) - 1; i >= 0; i-- {
		if ws.entries[i].v == v {
			return i, true
		}
	}
	return 0, false
}

// lookup returns the pending version for v, if any.
func (ws *writeSet) lookup(v *Var) (*Box, bool) {
	if i, ok := ws.find(v); ok {
		return ws.entries[i].b, true
	}
	return nil, false
}

// put records b as the version of v to publish, replacing any earlier write
// to v (nobody else has seen that cell: it is dropped).
func (ws *writeSet) put(v *Var, b *Box) {
	if i, ok := ws.find(v); ok {
		ws.entries[i].b = b
		return
	}
	ws.entries = append(ws.entries, writeEntry{v: v, b: b})
	ws.bf.AddKey(v.key)
	if ws.idx != nil {
		ws.idx[v] = len(ws.entries) - 1
	} else if len(ws.entries) > wsetMapThreshold {
		//stmlint:ignore hot-path-deep amortized one-time index build above the threshold; O(1) lookups from then on repay the allocation
		ws.idx = make(map[*Var]int, 2*len(ws.entries))
		for i, e := range ws.entries {
			ws.idx[e.v] = i
		}
	}
}

// reset empties the write set for a new attempt. keep says the previous
// attempt was this transaction's and conflict-aborted: every engine refuses a
// commit before its write-back, and a mailbox reply is final, so none of its
// cells was published or is still read by a server, and its entries become the
// spares (an attempt that wrote nothing leaves the older spares in place).
// Without keep — a new transaction, whose write set may hold published cells —
// the spares go too; that costs one length test.
func (ws *writeSet) reset(keep bool) {
	if !keep && len(ws.spares) != 0 {
		clear(ws.spares)
		ws.spares = ws.spares[:0]
	}
	if len(ws.entries) == 0 {
		// Nothing written since the last reset, so no index and (put alone
		// sets its bits) an empty filter: a read-only begin clears nothing.
		return
	}
	// As in readSet.reset: drop the pointers, not just the length, so
	// committed cells and dead Vars can be collected between transactions.
	if keep {
		clear(ws.spares)
		ws.entries, ws.spares = ws.spares[:0], ws.entries
	} else {
		clear(ws.entries)
		ws.entries = ws.entries[:0]
	}
	ws.idx = nil
	ws.bf.Clear()
}

// spare hands out v's spare cell, once, or nil; Tx.SpareBox calls it only
// when there are spares. It scans them, as lookup scans a small write set, and
// above wsetMapThreshold spares it does not look: the retry allocates, as its
// first attempt did. It stays out of line, so that SpareBox's length test
// inlines into every Store.
//
//stm:hotpath
//go:noinline
func (ws *writeSet) spare(v *Var) *Box {
	if len(ws.spares) > wsetMapThreshold {
		return nil
	}
	for i := range ws.spares {
		if ws.spares[i].v == v {
			b := ws.spares[i].b
			ws.spares[i] = writeEntry{}
			return b
		}
	}
	return nil
}

func (ws *writeSet) len() int { return len(ws.entries) }

// shards returns the mask of the commit streams a non-empty ws writes (bit j =
// stream j), given System.shardMask: bit 0 alone when Shards == 1.
//
//stm:hotpath
func (ws *writeSet) shards(shardMask uint64) (mask uint64) {
	if shardMask == 0 {
		return 1
	}
	for i := range ws.entries {
		mask |= 1 << (ws.entries[i].v.key.H1 & shardMask)
	}
	return mask
}

// writeBack publishes every buffered version. The caller must hold the
// write-back right (global timestamp odd, or the global mutex).
func (ws *writeSet) writeBack() {
	for _, e := range ws.entries {
		e.v.storeBox(e.b)
	}
}
