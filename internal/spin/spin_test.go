package spin

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestUntilImmediate(t *testing.T) {
	calls := 0
	Until(func() bool { calls++; return true })
	if calls != 1 {
		t.Fatalf("cond called %d times, want 1", calls)
	}
}

func TestUntilEventually(t *testing.T) {
	var flag atomic.Bool
	go func() {
		time.Sleep(2 * time.Millisecond)
		flag.Store(true)
	}()
	done := make(chan struct{})
	go func() {
		Until(flag.Load)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Until never returned")
	}
}

// TestUntilSingleOS verifies liveness when the waiter and the setter must
// share a single OS thread — the scenario that breaks naive busy loops.
func TestUntilSingleOS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	var flag atomic.Bool
	var hops atomic.Int64
	go func() {
		// The setter needs many scheduling quanta before flipping the flag.
		for i := 0; i < 100; i++ {
			hops.Add(1)
			runtime.Gosched()
		}
		flag.Store(true)
	}()
	done := make(chan struct{})
	go func() {
		Until(flag.Load)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("starved: setter made %d hops", hops.Load())
	}
}

func TestWaiterEscalates(t *testing.T) {
	w := &Waiter{}
	for i := 0; i < BusyIters+YieldIters; i++ {
		w.Wait()
	}
	if w.sleep != 0 {
		t.Fatal("slept before exhausting busy+yield phases")
	}
	w.Wait()
	if w.sleep == 0 {
		t.Fatal("did not escalate to sleeping")
	}
	first := w.sleep
	w.Wait()
	if w.sleep <= first && w.sleep < MaxSleep {
		t.Fatalf("sleep did not grow: %v -> %v", first, w.sleep)
	}
	w.Reset()
	if w.spins != 0 || w.sleep != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// TestWaiterBusy pins Busy to the phase boundary: true for exactly the first
// BusyIters waits (the ones that do not yield), false from then on, true again
// after Reset.
func TestWaiterBusy(t *testing.T) {
	var w Waiter
	for i := 0; i < BusyIters; i++ {
		if !w.Busy() {
			t.Fatalf("Busy() = false after %d of %d busy waits", i, BusyIters)
		}
		w.Wait()
	}
	if w.Busy() {
		t.Fatalf("Busy() = true after all %d busy waits", BusyIters)
	}
	w.Wait() // first yield
	if w.Busy() {
		t.Fatal("Busy() = true in the yield phase")
	}
	w.Reset()
	if !w.Busy() {
		t.Fatal("Busy() = false after Reset")
	}
}

func TestWaiterSleepCapped(t *testing.T) {
	w := &Waiter{spins: BusyIters + YieldIters}
	for i := 0; i < 40; i++ {
		if w.sleep == 0 {
			w.sleep = time.Microsecond
		} else if w.sleep < MaxSleep {
			w.sleep *= 2
			if w.sleep > MaxSleep {
				w.sleep = MaxSleep
			}
		}
	}
	if w.sleep > MaxSleep {
		t.Fatalf("sleep %v exceeds cap %v", w.sleep, MaxSleep)
	}
}
