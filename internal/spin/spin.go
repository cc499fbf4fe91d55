// Package spin provides spin-wait helpers that stay live on any GOMAXPROCS.
//
// The paper's algorithms spin: clients spin on their request slot waiting for
// the commit-server's reply, servers spin scanning for pending requests, and
// readers spin waiting for the global timestamp to turn even. On the paper's
// testbed every spinner owned a core; under the Go runtime — and in this
// reproduction's single-core CI environment — a naive busy loop would starve
// the very goroutine it is waiting for. Waiter implements an adaptive policy:
// a short busy phase (cheap when the condition flips quickly on a multicore
// box), then cooperative yields, then progressively longer sleeps so that an
// idle server consumes negligible CPU.
package spin

import (
	"runtime"
	"time"
)

// Tunables for the adaptive wait policy. They are variables (not constants)
// so stress tests can tighten them.
var (
	// BusyIters is the number of pure busy-loop iterations before yielding.
	BusyIters = 64
	// YieldIters is the number of runtime.Gosched calls before sleeping.
	YieldIters = 128
	// MaxSleep caps the exponential sleep backoff.
	MaxSleep = 100 * time.Microsecond
)

// Waiter tracks how long a caller has been spinning and escalates from busy
// waiting to yielding to sleeping. The zero value is ready to use.
type Waiter struct {
	spins int
	sleep time.Duration
}

// Wait performs one step of the adaptive wait. Call it in a loop that
// re-checks the awaited condition between calls.
func (w *Waiter) Wait() {
	switch {
	case w.spins < BusyIters:
		w.spins++
		// Busy spin: on a multicore machine the condition usually flips
		// within a few cache-coherence round trips.
	case w.spins < BusyIters+YieldIters:
		w.spins++
		runtime.Gosched()
	default:
		if w.sleep == 0 {
			w.sleep = time.Microsecond
		} else if w.sleep < MaxSleep {
			w.sleep *= 2
			if w.sleep > MaxSleep {
				w.sleep = MaxSleep
			}
		}
		time.Sleep(w.sleep)
	}
}

// Busy reports whether the busy phase still has iterations left: the next
// Wait returns without yielding the processor. A caller that has something
// better to do than yield (run the awaited work itself) asks this instead of
// counting its own iterations.
func (w *Waiter) Busy() bool { return w.spins < BusyIters }

// Reset restores the waiter to its initial (busy) phase. Call it after the
// awaited condition was observed, so the next wait starts cheap again.
func (w *Waiter) Reset() {
	w.spins = 0
	w.sleep = 0
}

// Until spins until cond returns true, using an adaptive waiter.
func Until(cond func() bool) {
	var w Waiter
	for !cond() {
		w.Wait()
	}
}
