package core

import (
	"math/bits"

	"github.com/ssrg-vt/rinval/internal/padded"
)

// activeSet is the level-0 gate of the two-level invalidation scan: one bit
// per request slot, set while the slot's transaction is in flight. Scans
// iterate live transactions by loading a word and peeling set bits with
// bits.TrailingZeros64, so their cost tracks the number of in-flight
// transactions, not Config.MaxThreads.
//
// Ordering contract (DESIGN.md §9): the owner sets its bit before storing
// the (epoch, ALIVE) status word in Tx.begin and clears it after storing
// INACTIVE in Tx.deactivateSlot. Go atomics are sequentially consistent, so
// a scanner that misses the bit has proof the slot is not ALIVE at that
// point of the total order: either the begin (and hence every read of that
// incarnation) has not happened yet, or the transaction already retired.
// The bitmap may over-approximate — a set bit with an INACTIVE status word
// is routine between the deactivate store and the bit clear — which only
// sends the scan to the status check it would have done anyway.
//
// Each word is cache-padded: word w is begin/end write traffic for slots
// [64w, 64w+63] only, so transactions in different words never contend on
// the bitmap, and a scanner's read of one word covers 64 slots in one line.
type activeSet struct {
	words []padded.Uint64
}

// newActiveSet returns a bitmap covering n slots.
func newActiveSet(n int) activeSet {
	return activeSet{words: make([]padded.Uint64, (n+63)/64)}
}

// set marks slot i in flight.
//
//stm:hotpath
func (a *activeSet) set(i int) {
	a.words[i>>6].Or(1 << (uint(i) & 63))
}

// clear marks slot i retired.
//
//stm:hotpath
func (a *activeSet) clear(i int) {
	a.words[i>>6].And(^(uint64(1) << (uint(i) & 63)))
}

// has reports whether slot i's bit is set (tests and diagnostics).
func (a *activeSet) has(i int) bool {
	return a.words[i>>6].Load()&(1<<(uint(i)&63)) != 0
}

// nextSlot peels the lowest set bit from *bits (a word w snapshot) and
// returns its slot index.
//
//stm:hotpath
func nextSlot(w int, b *uint64) int {
	i := w<<6 + bits.TrailingZeros64(*b)
	*b &= *b - 1
	return i
}
