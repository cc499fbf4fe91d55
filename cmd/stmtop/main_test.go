package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// cannedVars is a minimal /debug/vars document with both STM vars populated,
// shaped exactly as examples/kvstore publishes them.
const cannedVars = `{
  "cmdline": ["kvstore"],
  "stm": {
    "algo": "rinval-v2",
    "commits": 3200,
    "aborts": 800,
    "abort_reasons": {"invalidated": 700, "validation": 0, "locked": 100, "explicit": 0}
  },
  "stm_conflict": {
    "enabled": true,
    "slots": 2,
    "matrix": [[0, 5], [600, 0], [95, 0]],
    "invalidation_aborts": 700,
    "commits": 3200,
    "aborts": 800,
    "fp": {"sampled": 100, "false_positive": 7, "rate": 0.07},
    "filter_bits": 1024,
    "hot_vars": [{"id": 9, "name": "hot-0", "samples": 50, "share": 0.5}],
    "hot_var_samples": 100,
    "wasted_ns": {"invalidated": 120000, "validation": 0, "locked": 200, "explicit": 0},
    "wasted_ops": {"invalidated": 900, "validation": 0, "locked": 6, "explicit": 0}
  },
  "stm_latency": {
    "enabled": true,
    "sample_every": 64,
    "sampled_commits": 50,
    "client": [
      {"phase": "app", "count": 50, "p50_ns": 210, "p99_ns": 900, "max_ns": 1200},
      {"phase": "total", "count": 50, "p50_ns": 800, "p99_ns": 2500000, "max_ns": 4000000}
    ],
    "server": [
      {"phase": "collect", "count": 30, "p50_ns": 1100, "p99_ns": 5200, "max_ns": 9000}
    ]
  },
  "stm_timeseries": {
    "enabled": true,
    "interval_ns": 25000000,
    "capacity": 64,
    "windows": 3,
    "seq": 3,
    "recent": [
      {"unix_nanos": 1, "dur_ns": 25000000, "counters": {"commits": 250}, "abort_rate": 0, "p50_total_ns": 400, "p99_total_ns": 900},
      {"unix_nanos": 2, "dur_ns": 25000000, "counters": {"commits": 100, "aborts": 300}, "abort_rate": 0.75, "p50_total_ns": 900, "p99_total_ns": 52000},
      {"unix_nanos": 3, "dur_ns": 25000000, "counters": {"commits": 90, "aborts": 310}, "abort_rate": 0.775, "p50_total_ns": 1000, "p99_total_ns": 61000}
    ],
    "slos": [
      {"name": "abort-rate", "kind": "abort-rate", "objective": "abort-rate<=0.15", "fast": "200ms", "slow": "600ms", "burn_threshold": 2, "fast_burn": 5.1, "slow_burn": 2.2, "firing": true, "alerts": 1}
    ],
    "alerts": [
      {"slo": "abort-rate", "unix_nanos": 3, "seq": 3, "fast_burn": 5.1, "slow_burn": 2.2, "burn_threshold": 2,
       "window": {"unix_nanos": 3, "dur_ns": 25000000, "abort_rate": 0.775, "p50_total_ns": 1000, "p99_total_ns": 61000}}
    ],
    "alerts_total": 1
  }
}`

func TestDecodeAndRender(t *testing.T) {
	cur, err := decode(strings.NewReader(cannedVars))
	if err != nil {
		t.Fatal(err)
	}
	if !cur.hasSTM || cur.stm.Algo != "rinval-v2" || cur.conflict.InvalidationAborts != 700 {
		t.Fatalf("decode: %+v", cur)
	}
	if !cur.latency.Enabled || cur.latency.SampledCommits != 50 {
		t.Fatalf("decode latency: %+v", cur.latency)
	}
	prev := &snapshot{at: cur.at.Add(-time.Second), hasSTM: true}
	prev.stm.Commits, prev.stm.Aborts = 3000, 700

	var b strings.Builder
	render(&b, prev, cur, 8)
	out := b.String()
	for _, want := range []string{
		"rinval-v2",
		"abort-rate  20.0%",              // 800 / 4000
		"commits/s",                      // delta line rendered
		"invalidation aborts 700",        // attribution section
		"bloom FP rate 0.0700",           // FPStats
		"slot   1 -> slot   0       600", // top matrix cell
		"slot   ? -> slot   0        95", // unknown committer row
		"hot-0",                          // named hot var
		"50.00%",                         // its share
		"invalidated",                    // wasted-work row
		"latency (1-in-64 sampled, 50 sampled commits)",
		"client", // phase-group label
		"app",    // client phase row
		"2.5ms",  // total p99, ms formatting
		"server",
		"collect", // server phase row
		"5.2µs",   // its p99, µs formatting
		"timeseries (25ms windows, 3 held, seq 3)",
		"commits/s",
		"abort %",
		"p99 total",
		"slo abort-rate",
		"FIRING",
		"alerts total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestCounterReset fabricates a scrape pair where the source restarted
// between polls (current counters below the previous ones). The raw uint64
// subtraction would wrap to a ~1.8e19 "rate"; the dashboard must instead show
// a reset note and carry no bogus rate, then re-sync on the next frame.
func TestCounterReset(t *testing.T) {
	if d, ok := counterDelta(500, 200); !ok || d != 300 {
		t.Errorf("monotonic delta: got (%d, %v)", d, ok)
	}
	if d, ok := counterDelta(200, 500); ok || d != 0 {
		t.Errorf("reset delta should clamp to (0, false): got (%d, %v)", d, ok)
	}

	cur, err := decode(strings.NewReader(cannedVars))
	if err != nil {
		t.Fatal(err)
	}
	prev := &snapshot{at: cur.at.Add(-time.Second), hasSTM: true}
	prev.stm.Commits, prev.stm.Aborts = 1_000_000, 50_000 // restart: prev > cur

	var b strings.Builder
	render(&b, prev, cur, 8)
	out := b.String()
	if !strings.Contains(out, "counter reset detected") {
		t.Errorf("render missing reset note:\n%s", out)
	}
	if strings.Contains(out, "aborts/s") { // the rate line's suffix; the sparkline label is "commits/s" alone
		t.Errorf("render emitted a rate line across a reset:\n%s", out)
	}

	// Next frame: prev re-synced to the post-restart snapshot, rates resume.
	resynced := &snapshot{at: cur.at.Add(-time.Second), hasSTM: true}
	resynced.stm.Commits, resynced.stm.Aborts = 3000, 700
	b.Reset()
	render(&b, resynced, cur, 8)
	if !strings.Contains(b.String(), "200 commits/s") {
		t.Errorf("render did not resume rates after re-sync:\n%s", b.String())
	}
}

// TestSpark pins the sparkline scaling: max maps to the tallest block, zero
// to the baseline, and an all-zero series stays flat.
func TestSpark(t *testing.T) {
	if got := spark([]float64{0, 25, 50, 100}); got != "▁▂▄█" {
		t.Errorf("spark ramp: got %q", got)
	}
	if got := spark([]float64{0, 0, 0}); got != "▁▁▁" {
		t.Errorf("all-zero spark: got %q", got)
	}
}

func TestRenderIdle(t *testing.T) {
	cur, err := decode(strings.NewReader(`{"stm": null, "stm_conflict": null}`))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	render(&b, nil, cur, 8)
	if !strings.Contains(b.String(), "no STM system is currently running") {
		t.Errorf("idle render: %q", b.String())
	}
}

func TestRenderAttributionOff(t *testing.T) {
	cur, err := decode(strings.NewReader(
		`{"stm": {"algo": "norec", "commits": 10, "aborts": 0}, "stm_conflict": {"enabled": false}}`))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	render(&b, nil, cur, 8)
	if !strings.Contains(b.String(), "attribution off") {
		t.Errorf("off render: %q", b.String())
	}
}

func TestFetchAgainstHTTPServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/vars" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write([]byte(cannedVars))
	}))
	defer srv.Close()
	s, err := fetch(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	if s.stm.Commits != 3200 || s.conflict.FP.Sampled != 100 {
		t.Fatalf("fetch: %+v", s)
	}
	if _, err := fetch(srv.URL + "/nope"); err == nil {
		t.Error("fetch accepted a 404")
	}
}

// TestRenderClipped checks the narrow-terminal path: every rendered line is
// cut to the column budget (by runes, so the µs sign doesn't split), and a
// non-positive width leaves the output untouched.
func TestRenderClipped(t *testing.T) {
	cur, err := decode(strings.NewReader(cannedVars))
	if err != nil {
		t.Fatal(err)
	}
	var clipped strings.Builder
	renderClipped(&clipped, nil, cur, 8, 40)
	for i, line := range strings.Split(strings.TrimRight(clipped.String(), "\n"), "\n") {
		if n := len([]rune(line)); n > 40 {
			t.Errorf("line %d is %d runes wide: %q", i, n, line)
		}
	}
	if !strings.Contains(clipped.String(), "latency (1-in-64 sampled") {
		t.Errorf("clipped render lost the latency panel:\n%s", clipped.String())
	}

	var full, unclipped strings.Builder
	render(&full, nil, cur, 8)
	renderClipped(&unclipped, nil, cur, 8, 0)
	if full.String() != unclipped.String() {
		t.Error("cols <= 0 should render unclipped")
	}
}

func TestTermWidth(t *testing.T) {
	if got := termWidth(72); got != 72 {
		t.Errorf("explicit width: got %d", got)
	}
	t.Setenv("COLUMNS", "61")
	if got := termWidth(0); got != 61 {
		t.Errorf("$COLUMNS width: got %d", got)
	}
	t.Setenv("COLUMNS", "not-a-number")
	if got := termWidth(0); got != 0 {
		t.Errorf("bad $COLUMNS should disable clipping: got %d", got)
	}
}

// TestWriteJSON checks the -json one-shot shape: the three vars under stable
// keys when a system is running, and only the timestamp when idle.
func TestWriteJSON(t *testing.T) {
	cur, err := decode(strings.NewReader(cannedVars))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeJSON(&b, cur); err != nil {
		t.Fatal(err)
	}
	var got jsonSnapshot
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if got.STM == nil || got.STM.Commits != 3200 {
		t.Errorf("stm section: %+v", got.STM)
	}
	if got.Conflict == nil || !got.Conflict.Enabled {
		t.Errorf("conflict section: %+v", got.Conflict)
	}
	if got.Latency == nil || got.Latency.SampledCommits != 50 {
		t.Errorf("latency section: %+v", got.Latency)
	}

	idle, err := decode(strings.NewReader(`{"stm": null}`))
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := writeJSON(&b, idle); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `"stm"`) {
		t.Errorf("idle JSON should omit the stm section: %s", b.String())
	}
}

// TestLiveEndToEnd drives the real pipeline: obs.ServeMetrics serving the
// vars a live attribution-enabled report feeds, polled by fetch and rendered.
func TestLiveEndToEnd(t *testing.T) {
	rep := obs.ConflictReport{
		Enabled: true, Slots: 1,
		Matrix:             [][]uint64{{3}, {0}},
		InvalidationAborts: 3,
		Commits:            42,
	}
	obs.Publish("stm", func() any {
		return map[string]any{"algo": "invalstm", "commits": 42, "aborts": 3}
	})
	obs.PublishOpenMetrics(func() obs.MetricsPage { return obs.MetricsPage{Conflict: rep} })
	obs.Publish("stm_conflict", func() any { return rep })
	addr, shutdown, err := obs.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	s, err := fetch("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	render(&b, nil, s, 4)
	out := b.String()
	for _, want := range []string{"invalstm", "invalidation aborts 3", "slot   0 -> slot   0"} {
		if !strings.Contains(out, want) {
			t.Errorf("live render missing %q:\n%s", want, out)
		}
	}
}
