// Command stmtop is a live terminal dashboard for a running STM system. It
// polls the expvar endpoint a process exposes via obs.ServeMetrics (`go run
// ./examples/kvstore -metrics :8080 -duration 10s` is the ready-made source)
// and renders the conflict-attribution view: commit/abort rates, the hottest
// who-aborted-whom matrix cells, the top-K contended Vars, bloom
// false-positive rate, and wasted-work totals per abort reason.
//
// Usage:
//
//	stmtop -addr localhost:8080              # refresh every second
//	stmtop -addr localhost:8080 -interval 250ms
//	stmtop -addr localhost:8080 -once        # one snapshot, no screen control
//	stmtop -addr localhost:8080 -json        # one machine-readable snapshot
//	stmtop -addr localhost:8080 -width 60    # clip panels for a narrow terminal
//
// The data source is /debug/vars: the "stm" var carries the base counters,
// "stm_conflict" the ConflictReport snapshot, "stm_latency" the sampled
// critical-path decomposition, and "stm_timeseries" the windowed telemetry
// ring (all published by examples/kvstore's -metrics, which also turns on
// Config.Attribution, Config.Latency and Config.TimeSeries, the settings
// attribution detail, latency and sparklines need).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "host:port of the -metrics endpoint to poll")
		interval = flag.Duration("interval", time.Second, "poll period")
		once     = flag.Bool("once", false, "render a single snapshot and exit (no screen clearing)")
		jsonOut  = flag.Bool("json", false, "emit one snapshot as JSON and exit (implies -once)")
		topK     = flag.Int("k", 8, "rows in the hot-var and matrix tables")
		width    = flag.Int("width", 0, "clip panel lines to this many columns (0: $COLUMNS, else no clipping)")
	)
	flag.Parse()

	url := "http://" + *addr + "/debug/vars"
	cols := termWidth(*width)
	var prev *snapshot
	for {
		cur, err := fetch(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmtop: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := writeJSON(os.Stdout, cur); err != nil {
				fmt.Fprintf(os.Stderr, "stmtop: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderClipped(os.Stdout, prev, cur, *topK, cols)
		if *once {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}

// termWidth resolves the clipping width: an explicit -width wins, otherwise
// $COLUMNS (the shell convention; stmtop avoids cgo/ioctl for portability),
// otherwise 0 — no clipping.
func termWidth(flagWidth int) int {
	if flagWidth > 0 {
		return flagWidth
	}
	if c, err := strconv.Atoi(os.Getenv("COLUMNS")); err == nil && c > 0 {
		return c
	}
	return 0
}

// renderClipped renders the dashboard and clips every line to cols columns,
// so fixed-width panels degrade on narrow terminals instead of wrapping into
// an unreadable mess. cols <= 0 disables clipping.
func renderClipped(w io.Writer, prev, cur *snapshot, k, cols int) {
	if cols <= 0 {
		render(w, prev, cur, k)
		return
	}
	var buf bytes.Buffer
	render(&buf, prev, cur, k)
	for _, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		r := []rune(string(line))
		if len(r) > cols {
			r = r[:cols]
		}
		fmt.Fprintln(w, string(r))
	}
}

// jsonSnapshot is the -json output shape: the three published vars under
// stable keys, plus the poll timestamp.
type jsonSnapshot struct {
	At         time.Time             `json:"at"`
	STM        *stmVars              `json:"stm,omitempty"`
	Conflict   *obs.ConflictReport   `json:"conflict,omitempty"`
	Latency    *obs.LatencyReport    `json:"latency,omitempty"`
	TimeSeries *obs.TimeSeriesReport `json:"timeseries,omitempty"`
}

// writeJSON emits one machine-readable snapshot.
func writeJSON(w io.Writer, cur *snapshot) error {
	out := jsonSnapshot{At: cur.at}
	if cur.hasSTM {
		out.STM = &cur.stm
		out.Conflict = &cur.conflict
		out.Latency = &cur.latency
		if cur.tseries.Enabled {
			out.TimeSeries = &cur.tseries
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// snapshot is one poll of /debug/vars, reduced to the published STM vars.
type snapshot struct {
	at       time.Time
	stm      stmVars
	conflict obs.ConflictReport
	latency  obs.LatencyReport
	tseries  obs.TimeSeriesReport
	hasSTM   bool
}

// stmVars mirrors the "stm" expvar examples/kvstore publishes.
type stmVars struct {
	Algo         string            `json:"algo"`
	Commits      uint64            `json:"commits"`
	Aborts       uint64            `json:"aborts"`
	AbortReasons map[string]uint64 `json:"abort_reasons"`
}

// fetch polls the expvar endpoint and decodes the STM view.
func fetch(url string) (*snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return decode(resp.Body)
}

// decode parses an expvar JSON document. The "stm" and "stm_conflict" vars
// are null until a System is published; that decodes to zero values,
// which render as an idle dashboard rather than an error.
func decode(r io.Reader) (*snapshot, error) {
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(r).Decode(&vars); err != nil {
		return nil, fmt.Errorf("parsing expvar JSON: %w", err)
	}
	s := &snapshot{at: time.Now()}
	if raw, ok := vars["stm"]; ok && string(raw) != "null" {
		if err := json.Unmarshal(raw, &s.stm); err != nil {
			return nil, fmt.Errorf("parsing stm var: %w", err)
		}
		s.hasSTM = true
	}
	if raw, ok := vars["stm_conflict"]; ok && string(raw) != "null" {
		if err := json.Unmarshal(raw, &s.conflict); err != nil {
			return nil, fmt.Errorf("parsing stm_conflict var: %w", err)
		}
	}
	if raw, ok := vars["stm_latency"]; ok && string(raw) != "null" {
		if err := json.Unmarshal(raw, &s.latency); err != nil {
			return nil, fmt.Errorf("parsing stm_latency var: %w", err)
		}
	}
	if raw, ok := vars["stm_timeseries"]; ok && string(raw) != "null" {
		if err := json.Unmarshal(raw, &s.tseries); err != nil {
			return nil, fmt.Errorf("parsing stm_timeseries var: %w", err)
		}
	}
	return s, nil
}

// matrixCell is one nonzero who-aborted-whom entry, for ranking.
type matrixCell struct {
	committer, victim int // committer == slots means unknown
	n                 uint64
}

// render writes the dashboard. prev, when non-nil, supplies the delta window
// for the rate line; cur alone renders totals only.
func render(w io.Writer, prev, cur *snapshot, k int) {
	fmt.Fprintf(w, "stmtop — %s\n", time.Now().Format("15:04:05"))
	if !cur.hasSTM {
		fmt.Fprintln(w, "no STM system is currently running (stm expvar is null); waiting for a run")
		return
	}
	st := cur.stm
	fmt.Fprintf(w, "engine %-12s commits %-12d aborts %-12d", st.Algo, st.Commits, st.Aborts)
	if attempts := st.Commits + st.Aborts; attempts > 0 {
		fmt.Fprintf(w, "abort-rate %5.1f%%", 100*float64(st.Aborts)/float64(attempts))
	}
	fmt.Fprintln(w)
	if prev != nil && prev.hasSTM {
		dt := cur.at.Sub(prev.at).Seconds()
		if dt > 0 {
			dc, okc := counterDelta(st.Commits, prev.stm.Commits)
			da, oka := counterDelta(st.Aborts, prev.stm.Aborts)
			if okc && oka {
				fmt.Fprintf(w, "rates  %.0f commits/s  %.0f aborts/s (over %.2fs)\n",
					float64(dc)/dt, float64(da)/dt, dt)
			} else {
				fmt.Fprintln(w, "rates  -- counter reset detected (source restarted); re-syncing")
			}
		}
	}
	if len(st.AbortReasons) > 0 {
		reasons := make([]string, 0, len(st.AbortReasons))
		for r := range st.AbortReasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		fmt.Fprint(w, "aborts ")
		for _, r := range reasons {
			fmt.Fprintf(w, " %s=%d", r, st.AbortReasons[r])
		}
		fmt.Fprintln(w)
	}
	if ro := cur.conflict; ro.ReadOnly > 0 || ro.ROFallbacks > 0 {
		fmt.Fprintf(w, "read-only %-10d ro-snapshot %-10d ro-fallbacks %-8d", ro.ReadOnly, ro.ROCommits, ro.ROFallbacks)
		if st.Commits > 0 {
			fmt.Fprintf(w, "ro-share %5.1f%%", 100*float64(ro.ReadOnly)/float64(st.Commits))
		}
		fmt.Fprintln(w)
	}

	if lr := cur.latency; lr.Enabled {
		fmt.Fprintf(w, "\nlatency (1-in-%d sampled, %d sampled commits)\n", lr.SampleEvery, lr.SampledCommits)
		fmt.Fprintf(w, "  %-6s %-12s %10s %10s %10s %10s\n", "", "phase", "count", "p50", "p99", "max")
		renderPhases(w, "client", lr.Client)
		renderPhases(w, "server", lr.Server)
	}

	renderTimeSeries(w, cur.tseries)

	cr := cur.conflict
	if !cr.Enabled {
		fmt.Fprintln(w, "\nattribution off (run with Config.Attribution / the conflict experiment for the full view)")
		return
	}
	fmt.Fprintf(w, "\nconflict attribution (%d slots, %d-bit filters)\n", cr.Slots, cr.FilterBits)
	fmt.Fprintf(w, "invalidation aborts %-10d bloom FP rate %.4f (%d/%d sampled)\n",
		cr.InvalidationAborts, cr.FP.Rate, cr.FP.FalsePositive, cr.FP.Sampled)

	if cells := topCells(cr, k); len(cells) > 0 {
		fmt.Fprintln(w, "\nwho aborted whom (top cells)")
		for _, c := range cells {
			committer := fmt.Sprintf("%d", c.committer)
			if c.committer == cr.Slots {
				committer = "?"
			}
			fmt.Fprintf(w, "  slot %3s -> slot %3d  %8d\n", committer, c.victim, c.n)
		}
	}
	if len(cr.HotVars) > 0 {
		fmt.Fprintln(w, "\nhot vars (reservoir sample share)")
		n := min(k, len(cr.HotVars))
		for _, hv := range cr.HotVars[:n] {
			name := hv.Name
			if name == "" {
				name = fmt.Sprintf("var-%d", hv.ID)
			}
			fmt.Fprintf(w, "  %-24s %6.2f%%  (%d samples)\n", name, 100*hv.Share, hv.Samples)
		}
	}
	if len(cr.WastedNs) > 0 {
		fmt.Fprintln(w, "\nwasted work (aborted attempts)")
		reasons := make([]string, 0, len(cr.WastedNs))
		for r := range cr.WastedNs {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			if cr.WastedNs[r] == 0 && cr.WastedOps[r] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-12s %12s  %8d ops\n", r,
				time.Duration(cr.WastedNs[r]).Round(time.Microsecond), cr.WastedOps[r])
		}
	}
}

// counterDelta computes a monotonic-counter delta, detecting resets: when the
// current reading is below the previous one the scraped process restarted (or
// a new run replaced the System), and the raw uint64 subtraction
// would wrap to an absurd positive rate. It reports ok=false instead; the
// caller shows a reset note for one frame and re-syncs on the next poll.
func counterDelta(cur, prev uint64) (uint64, bool) {
	if cur < prev {
		return 0, false
	}
	return cur - prev, true
}

// sparkRunes is the 8-level block ramp used for sparklines.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders vals as a fixed-height sparkline, scaled to the series max.
// An all-zero series renders as a flat baseline.
func spark(vals []float64) string {
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := 0
		if max > 0 && v > 0 {
			idx = int(v / max * float64(len(sparkRunes)-1))
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}

// renderTimeSeries prints the windowed-telemetry panel: sparklines over the
// recent windows for throughput, abort rate and p99, then one status line per
// declared SLO with its multi-window burn rates.
func renderTimeSeries(w io.Writer, ts obs.TimeSeriesReport) {
	if !ts.Enabled || len(ts.Recent) == 0 {
		return
	}
	n := len(ts.Recent)
	commits := make([]float64, n)
	abortPct := make([]float64, n)
	p99 := make([]float64, n)
	for i, win := range ts.Recent {
		if win.DurNs > 0 {
			commits[i] = float64(win.Counters["commits"]) / (float64(win.DurNs) / 1e9)
		}
		abortPct[i] = 100 * win.AbortRate
		p99[i] = float64(win.P99TotalNs)
	}
	last := ts.Recent[n-1]
	fmt.Fprintf(w, "\ntimeseries (%v windows, %d held, seq %d)\n",
		time.Duration(ts.IntervalNs), ts.Windows, ts.Seq)
	fmt.Fprintf(w, "  commits/s  %s  %8.0f\n", spark(commits), commits[n-1])
	fmt.Fprintf(w, "  abort %%    %s  %7.1f%%\n", spark(abortPct), abortPct[n-1])
	fmt.Fprintf(w, "  p99 total  %s  %8s\n", spark(p99), fmtLatNs(last.P99TotalNs))
	for _, s := range ts.SLOs {
		status := "ok"
		if s.Firing {
			status = "FIRING"
		}
		fmt.Fprintf(w, "  slo %-18s %-6s fast %5.2fx  slow %5.2fx  alerts %d  (%s, burn>=%.1fx)\n",
			s.Name, status, s.FastBurn, s.SlowBurn, s.Alerts, s.Objective, s.Burn)
	}
	if ts.AlertsTotal > 0 {
		fmt.Fprintf(w, "  alerts total %d", ts.AlertsTotal)
		if len(ts.Alerts) > 0 {
			a := ts.Alerts[len(ts.Alerts)-1]
			fmt.Fprintf(w, "  last: %s at seq %d (fast %.1fx slow %.1fx)", a.SLO, a.Seq, a.FastBurn, a.SlowBurn)
		}
		fmt.Fprintln(w)
	}
}

// renderPhases prints one side (client or server) of the latency panel,
// labelling only the first row of the group.
func renderPhases(w io.Writer, side string, phases []obs.LatencyPhase) {
	for i, ph := range phases {
		label := ""
		if i == 0 {
			label = side
		}
		fmt.Fprintf(w, "  %-6s %-12s %10d %10s %10s %10s\n",
			label, ph.Phase, ph.Count, fmtLatNs(ph.P50), fmtLatNs(ph.P99), fmtLatNs(ph.MaxNs))
	}
}

// fmtLatNs renders a nanosecond figure compactly (ns/µs/ms).
func fmtLatNs(ns uint64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// topCells ranks the nonzero matrix cells by count, descending.
func topCells(cr obs.ConflictReport, k int) []matrixCell {
	var cells []matrixCell
	for c, row := range cr.Matrix {
		for v, n := range row {
			if n > 0 {
				cells = append(cells, matrixCell{committer: c, victim: v, n: n})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].n != cells[j].n {
			return cells[i].n > cells[j].n
		}
		if cells[i].committer != cells[j].committer {
			return cells[i].committer < cells[j].committer
		}
		return cells[i].victim < cells[j].victim
	})
	if len(cells) > k {
		cells = cells[:k]
	}
	return cells
}
