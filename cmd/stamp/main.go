// Command stamp runs one live STAMP application port under a chosen STM
// engine and reports execution time and transaction statistics.
//
// Usage:
//
//	stamp -app kmeans -algo rinval-v2 -threads 4
//	stamp -app genome -algo norec -threads 8 -scale small
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ssrg-vt/rinval/internal/bench"
	"github.com/ssrg-vt/rinval/stm"
)

func main() {
	var (
		app     = flag.String("app", "kmeans", "kmeans|ssca2|labyrinth|intruder|genome|vacation|bayes")
		algo    = flag.String("algo", "rinval-v2", "mutex|norec|invalstm|rinval-v1|rinval-v2|rinval-v3|tl2")
		threads = flag.Int("threads", 4, "worker threads")
		scale   = flag.String("scale", "default", "workload scale: small|default|large")
		seed    = flag.Uint64("seed", 1, "input generation seed")
	)
	flag.Parse()

	a, err := stm.ParseAlgo(*algo)
	if err != nil {
		fatal(err)
	}
	sc := bench.ScaleDefault
	switch *scale {
	case "small":
		sc = bench.ScaleSmall
	case "default":
	case "large":
		sc = bench.ScaleLarge
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	row, err := bench.RunSTAMP(a, *app, *threads, sc, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("app        %s (validated)\n", *app)
	fmt.Printf("engine     %s\n", row.Algo)
	fmt.Printf("threads    %d\n", row.Threads)
	fmt.Printf("elapsed    %s\n", row.Elapsed)
	fmt.Printf("commits    %d\n", row.Commits)
	fmt.Printf("aborts     %d\n", row.Aborts)
	fmt.Printf("throughput %.1f K tx/s\n", row.KTxPerSec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stamp:", err)
	os.Exit(1)
}
