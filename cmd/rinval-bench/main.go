// Command rinval-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	rinval-bench -exp fig7a            # Figure 7(a): RBT throughput, 50% reads
//	rinval-bench -exp fig7b            # Figure 7(b): RBT throughput, 80% reads
//	rinval-bench -exp fig2             # Figure 2: RBT critical-path breakdown
//	rinval-bench -exp fig3             # Figure 3: STAMP breakdown (sim only)
//	rinval-bench -exp fig8             # Figure 8: all STAMP execution times
//	rinval-bench -exp fig8 -app kmeans # Figure 8(a) only
//	rinval-bench -exp ablK             # ablation: invalidation-server count
//	rinval-bench -exp ablSteps         # ablation: V3 window under server lag
//	rinval-bench -exp ablJitter        # ablation: OS jitter sensitivity
//	rinval-bench -exp ablBloom         # ablation: bloom filter size (live)
//	rinval-bench -exp ablReadSet       # ablation: validation vs read-set size
//	rinval-bench -exp ablTL2           # ablation: coarse family vs TL2
//	rinval-bench -exp latency -mode live  # per-transaction latency percentiles
//	rinval-bench -exp fig7a -mode live -trace out.json   # Perfetto lifecycle trace
//	rinval-bench -exp fig7a -mode live -metrics :8080    # expvar + pprof endpoint
//
// -mode sim (default) runs the deterministic 64-core discrete-event model,
// which reproduces the paper's shapes on any host. -mode live runs the real
// engines on this machine (results depend on GOMAXPROCS).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/ssrg-vt/rinval/internal/bench"
	"github.com/ssrg-vt/rinval/stm"
)

// validExps maps every experiment name to its one-line description, in the
// order the package doc documents them. Keep the doc comment in sync; the
// -exp help text and the unknown-experiment message derive from this table.
var validExps = []expDesc{
	{"fig7a", "Figure 7(a): RBT throughput, 50% reads"},
	{"fig7b", "Figure 7(b): RBT throughput, 80% reads"},
	{"fig2", "Figure 2: RBT critical-path breakdown"},
	{"fig3", "Figure 3: STAMP breakdown (sim only)"},
	{"fig8", "Figure 8: STAMP execution times"},
	{"ablK", "ablation: invalidation-server count (sim only)"},
	{"ablSteps", "ablation: V3 window under server lag (sim only)"},
	{"ablJitter", "ablation: OS jitter sensitivity (sim only)"},
	{"ablBloom", "ablation: bloom filter size (live only)"},
	{"ablReadSet", "ablation: validation vs read-set size"},
	{"ablTL2", "ablation: coarse family vs TL2 (sim only)"},
	{"latency", "per-transaction latency percentiles (live only)"},
}

type expDesc struct{ name, what string }

// expHelp renders one line per experiment for --help.
func expHelp() string {
	var b strings.Builder
	b.WriteString("experiment to run; one of:\n")
	for _, e := range validExps {
		fmt.Fprintf(&b, "  %-12s %s\n", e.name, e.what)
	}
	return strings.TrimRight(b.String(), "\n")
}

// expNamesSorted returns the experiment names in lexical order, for the
// unknown-experiment message.
func expNamesSorted() []string {
	names := make([]string, len(validExps))
	for i, e := range validExps {
		names[i] = e.name
	}
	slices.Sort(names)
	return names
}

// isExp reports whether validExps lists name.
func isExp(name string) bool {
	return slices.ContainsFunc(validExps, func(e expDesc) bool { return e.name == name })
}

// errUnknownExp is the error for a name validExps does not list. It ends by
// naming the repository benchmark, where a performance number is measured.
func errUnknownExp(exp string) error {
	return fmt.Errorf("unknown experiment %q (valid: %s); performance numbers come from `go run ./benchmark`",
		exp, strings.Join(expNamesSorted(), ", "))
}

func main() {
	var (
		exp      = flag.String("exp", "fig7a", expHelp())
		mode     = flag.String("mode", "sim", "execution mode: sim (64-core model) or live (this machine)")
		threads  = flag.String("threads", "2,4,8,16,24,32,48,64", "comma-separated thread counts")
		app      = flag.String("app", "", "restrict fig8 to one STAMP app")
		duration = flag.Duration("duration", 150*time.Millisecond, "live mode: measurement window per point")
		seed     = flag.Uint64("seed", 1, "workload seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		svgDir   = flag.String("svg", "", "also render each table as an SVG chart into this directory")
		trace    = flag.String("trace", "", "live mode: write a Chrome trace-event JSON of the last benchmark point to this path (open in Perfetto)")
		metrics  = flag.String("metrics", "", "serve expvar, /metrics and pprof on this address (e.g. :8080) for the duration of the run; live rbtree runs then collect attribution, latency and time series (cmd/stmtop's panels)")
	)
	flag.Parse()

	if !isExp(*exp) {
		fatal(errUnknownExp(*exp))
	}
	if *trace != "" {
		if *mode != "live" {
			fatal(fmt.Errorf("-trace requires -mode live (sim runs record no lifecycle events)"))
		}
		bench.TraceTo(*trace)
	}
	if *metrics != "" {
		addr, shutdown, err := bench.ServeMetrics(*metrics)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}

	ths, err := bench.ParseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	if *exp == "latency" {
		t, err := runLatency(*mode, ths[0], *duration, *seed)
		if err != nil {
			fatal(err)
		}
		t.Format(os.Stdout)
		return
	}
	tables, err := run(*exp, *mode, ths, *app, *duration, *seed)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if *csv {
			fmt.Printf("# %s\n", t.Title)
			t.CSV(os.Stdout)
		} else {
			t.Format(os.Stdout)
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, t, *exp); err != nil {
				fatal(err)
			}
		}
	}
	// The trace file holds the last benchmark point that ran through the
	// live rbtree harness; experiments that never touch it write nothing.
	if *trace != "" {
		if _, err := os.Stat(*trace); err == nil {
			fmt.Printf("wrote %s\n", *trace)
		}
	}
}

// writeSVG renders one table as an SVG chart in dir. Figure 8 plots
// execution time (as the paper does); everything else plots throughput.
func writeSVG(dir string, t *bench.Table, exp string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := bench.ChartThroughput
	if exp == "fig8" {
		kind = bench.ChartElapsed
	}
	path := dir + "/" + t.SVGFileName()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.RenderSVG(f, kind); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func run(exp, mode string, ths []int, app string, dur time.Duration, seed uint64) ([]*bench.Table, error) {
	live := mode == "live"
	if !live && mode != "sim" {
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	switch exp {
	case "fig7a", "fig7b":
		pct := 50
		if exp == "fig7b" {
			pct = 80
		}
		if live {
			t, err := bench.LiveFigure7(pct, ths, dur, seed)
			return []*bench.Table{t}, err
		}
		return []*bench.Table{bench.SimFigure7(pct, ths, seed)}, nil
	case "fig2":
		if live {
			t, err := bench.LiveFigure2(ths, dur, seed)
			return []*bench.Table{t}, err
		}
		return []*bench.Table{bench.SimFigure2(ths, seed)}, nil
	case "fig3":
		if live {
			return nil, fmt.Errorf("fig3 breakdown is sim-only; run -exp fig8 -mode live for live STAMP numbers")
		}
		return []*bench.Table{bench.SimFigure3(32, seed)}, nil
	case "fig8":
		apps := bench.STAMPApps[:6] // bayes is breakdown-only, as in the paper
		if app != "" {
			apps = []string{app}
		}
		var out []*bench.Table
		for _, a := range apps {
			var t *bench.Table
			var err error
			if live {
				t, err = bench.LiveFigure8(a, ths, bench.ScaleDefault, seed)
			} else {
				t, err = bench.SimFigure8(a, ths, seed)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	case "ablK":
		if live {
			return nil, fmt.Errorf("ablK is sim-only (needs 64 modeled cores)")
		}
		return []*bench.Table{bench.SimAblationInvalServers([]int{1, 2, 4, 8, 16}, 48, seed)}, nil
	case "ablJitter":
		if live {
			return nil, fmt.Errorf("ablJitter is sim-only")
		}
		return []*bench.Table{bench.SimAblationJitter(48, seed)}, nil
	case "ablSteps":
		if live {
			return nil, fmt.Errorf("ablSteps is sim-only")
		}
		return []*bench.Table{bench.SimAblationStepsAhead([]int{1, 2, 4, 8}, 48, seed)}, nil
	case "ablBloom":
		if !live {
			return nil, fmt.Errorf("ablBloom is live-only (exercises the real filters)")
		}
		t, err := bench.LiveAblationBloomBits([]int{64, 256, 1024, 4096}, 4, dur, seed)
		return []*bench.Table{t}, err
	case "ablReadSet":
		if live {
			t, err := bench.LiveAblationReadSetSize([]int{64, 256, 1024}, 2, dur, seed)
			return []*bench.Table{t}, err
		}
		return []*bench.Table{bench.SimAblationReadSetSize([]int{8, 32, 128, 512}, 16, seed)}, nil
	case "ablTL2":
		if live {
			return nil, fmt.Errorf("ablTL2 is sim-only; run the live tl2 engine via cmd/stamp -algo tl2")
		}
		return []*bench.Table{bench.SimAblationCoarseVsFine(ths, seed)}, nil
	}
	return nil, errUnknownExp(exp)
}

// runLatency handles the latency experiment, which uses its own table shape.
func runLatency(mode string, threads int, dur time.Duration, seed uint64) (*bench.LatencyTable, error) {
	if mode != "live" {
		return nil, fmt.Errorf("latency is live-only (it measures real clock distributions)")
	}
	algos := []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2, stm.TL2}
	return bench.LiveLatencyProfile(algos, threads, dur, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rinval-bench:", err)
	os.Exit(1)
}
