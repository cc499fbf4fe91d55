// Blocking inside the critical section, and a batch acquisition and release
// whose order the checker cannot prove: parking while holding a stream lock
// stalls every committer behind this shard, and an arbitrary loop over
// lockStream or unlockStream gives no ascending or descending guarantee.
package locks

import "time"

func lockStream(i int)   {}
func unlockStream(i int) {}

func sendWhileHeld(ch chan int) {
	lockStream(0)
	ch <- 1 // want lock-order
	unlockStream(0)
}

func sleepWhileHeld() {
	lockStream(0)
	time.Sleep(time.Millisecond) // want lock-order
	unlockStream(0)
}

func unprovableLoopOrder(ids []int) {
	for _, i := range ids {
		lockStream(i) // want lock-order
	}
	for _, i := range ids {
		unlockStream(i) // want lock-order
	}
	// The release loop does not provably discharge the batch either: on the
	// path where ids is empty the acquired set (whatever it was) survives to
	// the function end.
} // want lock-order
