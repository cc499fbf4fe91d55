// Leaked partition locks: paths that leave the function still holding the
// partition the try acquired, work that blocks under it, a release of the
// wrong partition, and uses of the result the checker cannot follow.
package locks

import "time"

func tryLockPartition(j, k int) bool { return true }
func unlockPartition(j, k int)       {}

func leakyScan(j, k int, empty bool) bool {
	if tryLockPartition(j, k) {
		if empty {
			return false // want lock-order
		}
		unlockPartition(j, k)
		return true
	}
	return false
}

func leakyGuard(j, k int) {
	if !tryLockPartition(j, k) {
		return
	}
	scan()
} // want lock-order

func sleepyScan(j, k int) {
	if tryLockPartition(j, k) {
		time.Sleep(time.Microsecond) // want lock-order
		unlockPartition(j, k)
	}
}

func wrongPartition(j, k int) {
	if tryLockPartition(j, k) {
		scan()
		unlockPartition(j, k+1) // want lock-order
	}
} // want lock-order

func untestedResult(j, k int) {
	ok := tryLockPartition(j, k) // want lock-order
	if ok {
		unlockPartition(j, k) // want lock-order
	}
}

func scan() {}
