// Command benchmark is the repository's one repeatable benchmark: four
// workloads × four engines, end-to-end metrics averaged over the host's
// drift, per-layer micro-metrics and a traced run. See README.md in this
// directory for the glossary, the protocol and how the bounds were derived.
//
//	go run ./benchmark -seed 1                      every workload, end to end
//	go run ./benchmark -seed 1 -workload scan_ro_c1 one workload
//	go run ./benchmark -seed 1 -layers              the layer micro-metrics alone
//	go run ./benchmark -seed 1 -trace 1             per-layer metrics + traced run
//	go run ./benchmark -seed 1 -aa                  two sets back to back, compared
//
// Each workload's report ends with one JSON object holding the keys correct,
// attempted, failed and metrics. The exit status is non-zero when an output
// check or a transaction failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// defaultSeconds is the timed length of one workload's end-to-end run; it
// matches run_seconds in BENCHMARK.json.
const defaultSeconds = 24

var errIncorrect = errors.New("an output check or a transaction failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "timed seconds per workload of an end-to-end run")
	trace := fs.Int("trace", 0, "1: print the per-layer metrics and write the traced run; 0: the end-to-end metrics")
	layersOnly := fs.Bool("layers", false, "print only the layer micro-metrics")
	aa := fs.Bool("aa", false, "run the end-to-end suite twice and compare the sets against the bounds in BENCHMARK.json")
	outDir := fs.String("out", "benchmark/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, not %v", *seconds)
	}
	ws := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		ws = []workload{w}
	}

	switch {
	case *layersOnly:
		p := tracePlan()
		fmt.Fprintln(stdout, host(*seed, p))
		return printReport(stdout, "layer micro-metrics", layerMetrics(p, *seed), 1, 0)
	case *aa:
		return runAA(stdout, specFile, ws, endToEndPlan(*seconds), *seed)
	case *trace == 1:
		return runTraced(stdout, ws, tracePlan(), *seed, *outDir)
	}
	p := endToEndPlan(*seconds)
	fmt.Fprintln(stdout, host(*seed, p))
	var failed uint64
	for _, r := range runUntraced(ws, p, *seed) {
		printErrs(r.errs)
		title := fmt.Sprintf("%s end to end, at nominal host speed (this run: %.3f of nominal)", r.w.name, r.ref.speed())
		if err := printReport(stdout, title, r.endToEnd(), r.attempted, r.failed); err != nil {
			return err
		}
		failed += r.failed
	}
	if failed > 0 {
		return errIncorrect
	}
	return nil
}
