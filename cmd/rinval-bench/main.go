// Command rinval-bench regenerates the paper's evaluation figures on the
// deterministic 64-core discrete-event model (internal/sim), which reproduces
// the paper's shapes on any host and prints the same bytes on every run
// (results/sim_results.txt is its output; `make sim-check` diffs against it).
//
// Usage:
//
//	rinval-bench -exp fig7a            # Figure 7(a): RBT throughput, 50% reads
//	rinval-bench -exp fig7b            # Figure 7(b): RBT throughput, 80% reads
//	rinval-bench -exp fig2             # Figure 2: RBT critical-path breakdown
//	rinval-bench -exp fig3             # Figure 3: STAMP breakdown
//	rinval-bench -exp fig8             # Figure 8: all STAMP execution times
//	rinval-bench -exp fig8 -app kmeans # Figure 8(a) only
//	rinval-bench -exp ablK             # ablation: invalidation-server count
//	rinval-bench -exp ablSteps         # ablation: V3 window under server lag
//	rinval-bench -exp ablJitter        # ablation: OS jitter sensitivity
//	rinval-bench -exp ablReadSet       # ablation: validation vs read-set size
//	rinval-bench -exp ablTL2           # ablation: coarse family vs TL2
//
// Live performance on this host is measured by `go run ./benchmark`; the live
// STAMP ports run under cmd/stamp.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/ssrg-vt/rinval/internal/bench"
)

// validExps maps every experiment name to its one-line description, in the
// order the package doc documents them. Keep the doc comment in sync; the
// -exp help text and the unknown-experiment message derive from this table.
var validExps = []expDesc{
	{"fig7a", "Figure 7(a): RBT throughput, 50% reads"},
	{"fig7b", "Figure 7(b): RBT throughput, 80% reads"},
	{"fig2", "Figure 2: RBT critical-path breakdown"},
	{"fig3", "Figure 3: STAMP breakdown"},
	{"fig8", "Figure 8: STAMP execution times"},
	{"ablK", "ablation: invalidation-server count"},
	{"ablSteps", "ablation: V3 window under server lag"},
	{"ablJitter", "ablation: OS jitter sensitivity"},
	{"ablReadSet", "ablation: validation vs read-set size"},
	{"ablTL2", "ablation: coarse family vs TL2"},
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
		exp     = flag.String("exp", "fig7a", expHelp())
		threads = flag.String("threads", "2,4,8,16,24,32,48,64", "comma-separated thread counts")
		app     = flag.String("app", "", "restrict fig8 to one STAMP app")
		seed    = flag.Uint64("seed", 1, "workload seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		svgDir  = flag.String("svg", "", "also render each table as an SVG chart into this directory")
	)
	flag.Parse()

	if !isExp(*exp) {
		fatal(errUnknownExp(*exp))
	}
	ths, err := bench.ParseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	tables, err := run(*exp, ths, *app, *seed)
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

func run(exp string, ths []int, app string, seed uint64) ([]*bench.Table, error) {
	switch exp {
	case "fig7a", "fig7b":
		pct := 50
		if exp == "fig7b" {
			pct = 80
		}
		return []*bench.Table{bench.SimFigure7(pct, ths, seed)}, nil
	case "fig2":
		return []*bench.Table{bench.SimFigure2(ths, seed)}, nil
	case "fig3":
		return []*bench.Table{bench.SimFigure3(32, seed)}, nil
	case "fig8":
		apps := bench.STAMPApps[:6] // bayes is breakdown-only, as in the paper
		if app != "" {
			apps = []string{app}
		}
		var out []*bench.Table
		for _, a := range apps {
			t, err := bench.SimFigure8(a, ths, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	case "ablK":
		return []*bench.Table{bench.SimAblationInvalServers([]int{1, 2, 4, 8, 16}, 48, seed)}, nil
	case "ablJitter":
		return []*bench.Table{bench.SimAblationJitter(48, seed)}, nil
	case "ablSteps":
		return []*bench.Table{bench.SimAblationStepsAhead([]int{1, 2, 4, 8}, 48, seed)}, nil
	case "ablReadSet":
		return []*bench.Table{bench.SimAblationReadSetSize([]int{8, 32, 128, 512}, 16, seed)}, nil
	case "ablTL2":
		return []*bench.Table{bench.SimAblationCoarseVsFine(ths, seed)}, nil
	}
	return nil, errUnknownExp(exp)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rinval-bench:", err)
	os.Exit(1)
}
