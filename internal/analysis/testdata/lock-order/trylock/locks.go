// The try-lock idiom: a waiting client takes a free stream lock to run the
// epoch itself. The lock is held only on the side of the branch where the
// try succeeded, and released on every path out of that side.
package locks

func lockStream(i int)         {}
func tryLockStream(i int) bool { return true }
func unlockStream(i int)       {}

// helpThen holds the lock in the then-branch only.
func helpThen(i int) bool {
	if tryLockStream(i) {
		work()
		unlockStream(i)
		return true
	}
	return false
}

// helpGuard is the guard form: the early return is the path without the lock.
func helpGuard(i int) bool {
	if !tryLockStream(i) {
		return false
	}
	replied := work()
	unlockStream(i)
	return replied
}

// helpWhenReady tests a cheaper condition first; the lock is still held in
// the then-branch only.
func helpWhenReady(ready bool, i int) {
	if ready && tryLockStream(i) {
		defer unlockStream(i)
		if !work() {
			return // released by the defer
		}
		work()
	}
}

// helpInLoop retries from a wait loop. A try-lock never waits, so it needs
// no ordering against the stream it already holds.
func helpInLoop(mine, other int) {
	lockStream(mine)
	for n := 0; n < 3; n++ {
		if tryLockStream(other) {
			work()
			unlockStream(other)
			break
		}
	}
	unlockStream(mine)
}

func work() bool { return true }
