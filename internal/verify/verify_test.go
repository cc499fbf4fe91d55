package verify

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

func TestEngineAllAlgos(t *testing.T) {
	for _, a := range stm.Algos {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			rep, err := Engine(a, Options{Threads: 4, Duration: 60 * time.Millisecond, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Snapshots == 0 || rep.Audits == 0 || rep.TreeOps == 0 {
				t.Fatalf("no evidence gathered: %+v", rep)
			}
			if rep.Commits == 0 {
				t.Fatalf("no commits: %+v", rep)
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	// Degenerate options must be normalized, not crash.
	rep, err := Engine(stm.NOrec, Options{Threads: 0, Duration: 0, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshots == 0 {
		t.Fatal("defaults produced no work")
	}
}

// TestChurnSoloShared runs the churn check at both server layouts, whatever
// the runner's core count: GOMAXPROCS 2, where NOrec and every invalidation
// engine run a lone client's attempts solo, so Threads that register and
// close flip the long-lived client between solo and shared attempts; and
// GOMAXPROCS 4, where only NOrec and InvalSTM do and RInval starts every
// server.
func TestChurnSoloShared(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, a := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2, stm.RInvalV3} {
			t.Run(fmt.Sprintf("%s/procs=%d", a, procs), func(t *testing.T) {
				var rep Report
				if err := checkChurn(a, Options{Threads: 3, Duration: 100 * time.Millisecond, Seed: 1}, &rep); err != nil {
					t.Fatal(err)
				}
				if rep.Audits == 0 || rep.Churns == 0 {
					t.Fatalf("no evidence gathered: %+v", rep)
				}
			})
		}
	}
}

// TestInvisibleThenVisibleRegimes runs the conservation check with one
// transfer client and one auditor at GOMAXPROCS 2, on InvalSTM and on
// RInval-V1/V2 at Shards 1 and 2, whose clients commit themselves there: the
// total is conserved, and both validation aborts (invisible attempts) and
// invalidation aborts (their visible retries) occur.
func TestInvisibleThenVisibleRegimes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		algo   stm.Algo
		shards int
	}{{stm.InvalSTM, 1}, {stm.RInvalV1, 1}, {stm.RInvalV1, 2}, {stm.RInvalV2, 1}, {stm.RInvalV2, 2}} {
		t.Run(fmt.Sprintf("%s/shards=%d", c.algo, c.shards), func(t *testing.T) {
			var rep Report
			if err := checkConservation(c.algo, c.shards, Options{Threads: 2, Duration: 50 * time.Millisecond, Seed: 1}, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Commits == 0 || rep.Aborts == 0 {
				t.Fatalf("no evidence gathered: %+v", rep)
			}
		})
	}
}
