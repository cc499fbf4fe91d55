// Command rinval-verify stress-checks an engine's safety properties on this
// machine: opacity (no transaction body ever observes an inconsistent
// snapshot), atomicity (conserved quantities stay conserved), structural
// integrity of the transactional red-black tree under a mixed workload, and
// the first two again while short-lived Threads register and close around a
// long-lived client. For InvalSTM, whose attempts read invisibly first and
// visibly on a retry, the conservation run must see both abort reasons. It is
// the tool to run when porting the library to a new platform or after
// modifying an engine.
//
// Usage:
//
//	rinval-verify                      # all engines, 2s each
//	rinval-verify -algo rinval-v2 -duration 10s -threads 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ssrg-vt/rinval/internal/verify"
	"github.com/ssrg-vt/rinval/stm"
)

func main() {
	var (
		algoName = flag.String("algo", "", "engine to verify (default: all)")
		threads  = flag.Int("threads", 6, "concurrent worker goroutines")
		duration = flag.Duration("duration", 2*time.Second, "stress duration per check")
		seed     = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	algos := stm.Algos
	if *algoName != "" {
		a, err := stm.ParseAlgo(*algoName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rinval-verify:", err)
			os.Exit(1)
		}
		algos = []stm.Algo{a}
	}

	failed := false
	for _, a := range algos {
		fmt.Printf("%-12s ", a)
		rep, err := verify.Engine(a, verify.Options{
			Threads:  *threads,
			Duration: *duration,
			Seed:     *seed,
		})
		if err != nil {
			failed = true
			fmt.Printf("FAIL: %v\n", err)
			continue
		}
		fmt.Printf("ok   snapshots=%d audits=%d treeOps=%d churns=%d commits=%d aborts=%d\n",
			rep.Snapshots, rep.Audits, rep.TreeOps, rep.Churns, rep.Commits, rep.Aborts)
	}
	if failed {
		os.Exit(1)
	}
}
