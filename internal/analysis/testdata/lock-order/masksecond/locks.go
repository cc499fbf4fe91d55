// Misuse of the mask helpers: a second waiting acquisition next to a batch.
// The batch holds whatever streams its mask names, so nothing proves the
// second lock lies above them — two leaders doing this with overlapping
// streams is the ABBA hang the single ascending batch exists to rule out.
// A helper-only caller that leaks the batch on an early return is caught
// too, although it never names a primitive.
package locks

import "math/bits"

func lockStream(i int)   {}
func unlockStream(i int) {}

func lockStreams(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		lockStream(bits.TrailingZeros64(m))
	}
}

func unlockStreams(mask uint64) {
	for m := mask; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		unlockStream(j)
	}
}

func lockAfterBatch(touched uint64) {
	lockStreams(touched)
	lockStream(0) // want lock-order
	work()
	unlockStreams(touched | 1)
}

func batchAfterLock(home int, touched uint64) {
	lockStream(home)
	lockStreams(touched) // want lock-order
	work()
	unlockStreams(touched | 1<<uint(home))
}

func twoBatches(reads, writes uint64) {
	lockStreams(reads)
	lockStreams(writes) // want lock-order
	work()
	unlockStreams(reads | writes)
}

func leakyBatch(touched uint64, doomed bool) bool {
	lockStreams(touched)
	if doomed {
		return false // want lock-order
	}
	work()
	unlockStreams(touched)
	return true
}

func work() {}
