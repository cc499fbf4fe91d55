package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
)

// metric is one named, unit-carrying number. The names are the ones
// BENCHMARK.json lists; selftest_test.go keeps the two sets equal.
type metric struct {
	name  string
	value float64
	unit  string
}

// metrics is an ordered list of metrics under construction.
type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name, value, unit})
}

// quantile returns the q-quantile of sorted values (nearest rank), 0 if empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of values, which it leaves unsorted.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	slices.Sort(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the 13 end-to-end metrics of one workload from its
// untraced cells. Times are reported at the host reference's nominal speed:
// a run on a host 10 % slower than nominal has its rates divided, and its
// latencies and set-up time multiplied, by 0.9.
func (r *result) endToEnd() metrics {
	var m metrics
	speed := r.ref.speed()
	for e, algo := range engines {
		m.add("tx_per_s."+algo.String(), median(r.series[e].rates)/speed, "1/s")
	}
	for e, algo := range engines {
		m.add("lat_p50_us."+algo.String(), quantile(r.series[e].latencies(), 0.50)/1e3*speed, "us")
	}
	for e, algo := range engines {
		s := r.series[e]
		m.add("allocs_per_tx."+algo.String(), ratio(float64(s.mallocs), float64(s.tx)), "allocs/tx")
	}
	setups := make([]float64, len(r.roundSetup))
	for i, d := range r.roundSetup {
		setups[i] = d.Seconds()
	}
	m.add("setup_s", median(setups)*speed, "s")
	return m
}

// hostInfo is printed with every run and stored in every trace file.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Rounds     int    `json:"rounds"`
	Slices     int    `json:"slices_per_cell"`
	SliceMs    int64  `json:"slice_ms"`
}

func host(seed uint64, p plan) hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Rounds: p.rounds, Slices: p.slices, SliceMs: p.slice.Milliseconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d rounds=%d slices=%d×%dms",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Rounds, h.Slices, h.SliceMs)
}

// jsonValue is one metric of the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a run prints last for each workload.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// printErrs writes the failures behind a run's failed count to standard error.
func printErrs(errs []error) {
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
}

// printReport writes a workload's metrics by name with their units, then the
// result line.
func printReport(w io.Writer, title string, m metrics, attempted, failed uint64) error {
	fmt.Fprintf(w, "# %s\n", title)
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonValue{}}
	for _, x := range m {
		fmt.Fprintf(w, "%-46s %16.4f %s\n", x.name, x.value, x.unit)
		line.Metrics[x.name] = jsonValue{x.value, x.unit}
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", attempted, failed)
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
