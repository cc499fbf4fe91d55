// Leaked try-locks: paths that leave the function still holding a stream
// lock the try acquired, work that blocks under it, and uses of the result
// the checker cannot follow.
package locks

import "time"

func tryLockStream(i int) bool { return true }
func unlockStream(i int)       {}

func leakyThen(i int, declined bool) bool {
	if tryLockStream(i) {
		if declined {
			return false // want lock-order
		}
		unlockStream(i)
		return true
	}
	return false
}

func leakyGuard(i int) {
	if !tryLockStream(i) {
		return
	}
	work()
} // want lock-order

func sleepyHelper(i int) {
	if tryLockStream(i) {
		time.Sleep(time.Microsecond) // want lock-order
		unlockStream(i)
	}
}

func untestedResult(i int) {
	ok := tryLockStream(i) // want lock-order
	if ok {
		unlockStream(i) // want lock-order
	}
}

func work() {}
