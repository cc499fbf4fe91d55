// The sharded commit-stream shape: an owner-word spin lock, shard-mask
// peeling with bit tricks, and ascending-order multi-stream acquisition.
// All of it is atomics and integer arithmetic, so the hot-path check stays
// silent — this is the discipline the real handshake follows.
package hot

import (
	"math/bits"
	"sync/atomic"
)

type stream struct {
	owner atomic.Uint32
	ts    atomic.Uint64
}

var streams [8]stream

//stm:hotpath
func lockStream(j int) {
	for !streams[j].owner.CompareAndSwap(0, 1) {
	}
}

//stm:hotpath
func unlockStream(j int) { streams[j].owner.Store(0) }

// lockTouched acquires every stream in the mask in ascending index order
// (the handshake's deadlock-freedom argument).
//
//stm:hotpath
func lockTouched(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		lockStream(bits.TrailingZeros64(m))
	}
}

//stm:hotpath
func unlockTouchedDesc(mask uint64) {
	for m := mask; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		unlockStream(j)
	}
}
