// Package bench regenerates the tables and figures of the paper's evaluation
// (§V) on internal/sim, the deterministic discrete-event model of its 64-core
// testbed: the red-black tree throughput curves (Figure 7), the critical-path
// breakdowns (Figures 2-3), the STAMP execution times (Figure 8), and the
// ablations called out in DESIGN.md. It also formats them as aligned text,
// CSV and SVG, and holds the registry of live STAMP ports (NewSTAMP,
// RunSTAMP) that cmd/stamp runs.
//
// Live performance is measured by the repository benchmark (./benchmark),
// not here.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

// Row is one measurement: an (algorithm, thread count) cell of a figure.
type Row struct {
	Algo    string
	Threads int
	// KTxPerSec is throughput in thousands of transactions per second
	// (Figure 7's unit). For execution-time figures it is derived from
	// Elapsed and Commits.
	KTxPerSec float64
	// Elapsed is the workload execution time (Figure 8's unit).
	Elapsed time.Duration
	Commits uint64
	Aborts  uint64
	// Breakdown fractions of busy time (Figures 2-3). Zero for a live
	// STAMP run, which collects no phase timing.
	ReadFrac, CommitFrac, AbortFrac, OtherFrac float64
}

// Table is a formatted experiment result.
type Table struct {
	Title string
	Note  string
	Rows  []Row
}

// Format writes an aligned, human-readable table.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	hasBreakdown := false
	for _, r := range t.Rows {
		if r.ReadFrac+r.CommitFrac+r.AbortFrac+r.OtherFrac > 0 {
			hasBreakdown = true
			break
		}
	}
	if hasBreakdown {
		fmt.Fprintf(w, "%-12s %8s %12s %10s %7s %7s %7s %7s %7s\n",
			"algo", "threads", "ktx/s", "elapsed", "aborts", "read%", "commit%", "abort%", "other%")
	} else {
		fmt.Fprintf(w, "%-12s %8s %12s %10s %10s %10s\n",
			"algo", "threads", "ktx/s", "elapsed", "commits", "aborts")
	}
	for _, r := range t.Rows {
		if hasBreakdown {
			fmt.Fprintf(w, "%-12s %8d %12.1f %10s %7d %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
				r.Algo, r.Threads, r.KTxPerSec, fmtDur(r.Elapsed), r.Aborts,
				100*r.ReadFrac, 100*r.CommitFrac, 100*r.AbortFrac, 100*r.OtherFrac)
		} else {
			fmt.Fprintf(w, "%-12s %8d %12.1f %10s %10d %10d\n",
				r.Algo, r.Threads, r.KTxPerSec, fmtDur(r.Elapsed), r.Commits, r.Aborts)
		}
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values with a header.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, "algo,threads,ktx_per_sec,elapsed_ns,commits,aborts,read_frac,commit_frac,abort_frac,other_frac")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s,%d,%.3f,%d,%d,%d,%.4f,%.4f,%.4f,%.4f\n",
			r.Algo, r.Threads, r.KTxPerSec, r.Elapsed.Nanoseconds(), r.Commits, r.Aborts,
			r.ReadFrac, r.CommitFrac, r.AbortFrac, r.OtherFrac)
	}
}

// Sort orders rows by (algo presentation order, threads) for stable output.
func (t *Table) Sort() {
	order := map[string]int{}
	for i, a := range stm.Algos {
		order[a.String()] = i
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		a, b := t.Rows[i], t.Rows[j]
		if order[a.Algo] != order[b.Algo] {
			return order[a.Algo] < order[b.Algo]
		}
		return a.Threads < b.Threads
	})
}

// Series returns the throughput values for one algorithm ordered by thread
// count — convenient for shape assertions in tests.
func (t *Table) Series(algo string) []float64 {
	var rows []Row
	for _, r := range t.Rows {
		if r.Algo == algo {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Threads < rows[j].Threads })
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r.KTxPerSec
	}
	return out
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}

// ParseThreads parses a comma-separated thread list like "1,2,4,8".
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil || v < 1 {
			return nil, fmt.Errorf("bench: bad thread count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty thread list")
	}
	return out, nil
}
