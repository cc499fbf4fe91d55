package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTSCounterStrings pins every counter to a stable metric label.
func TestTSCounterStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := TSCounter(0); c < NumTSCounters; c++ {
		name := c.String()
		if strings.HasPrefix(name, "TSCounter(") {
			t.Errorf("counter %d has no label", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter label %q", name)
		}
		seen[name] = true
	}
}

// TestSLONormalize covers defaulting and every rejection path.
func TestSLONormalize(t *testing.T) {
	const interval = 100 * time.Millisecond
	const capacity = 600

	o, err := SLO{Kind: SLOAbortRate, MaxRate: 0.1}.Normalize(interval, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "abort-rate" || o.Fast != DefaultSLOFast || o.Slow != DefaultSLOSlow || o.Burn != DefaultSLOBurn {
		t.Errorf("abort-rate defaults: %+v", o)
	}

	o, err = SLO{Kind: SLOLatencyP99, MaxNs: 1e6}.Normalize(interval, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if o.Phase != "total" || o.Name != "latency-p99-total" {
		t.Errorf("latency defaults: %+v", o)
	}
	if got := o.Objective(); got != "p99(total)<=1ms" {
		t.Errorf("objective: %q", got)
	}

	bad := []SLO{
		{Kind: SLOAbortRate},                                                           // MaxRate unset
		{Kind: SLOAbortRate, MaxRate: 1.5},                                             // MaxRate > 1
		{Kind: SLOLatencyP99},                                                          // MaxNs unset
		{Kind: SLOLatencyP99, MaxNs: 1, Phase: "collect"},                              // server phase
		{Kind: SLOKind(99), MaxRate: 0.1},                                              // unknown kind
		{Kind: SLOAbortRate, MaxRate: 0.1, Burn: 0.5},                                  // burn below 1
		{Kind: SLOAbortRate, MaxRate: 0.1, Fast: time.Millisecond},                     // fast < interval
		{Kind: SLOAbortRate, MaxRate: 0.1, Fast: time.Second, Slow: time.Second},       // fast !< slow
		{Kind: SLOAbortRate, MaxRate: 0.1, Fast: time.Second, Slow: 600 * time.Second}, // slow > ring
		{Kind: SLOAbortRate, MaxRate: 0.6},                                             // burn tops out at 1.67 < 2
		{Kind: SLOLatencyP99, MaxNs: 1e6, Burn: 101},                                   // burn tops out at 100
	}
	for i, s := range bad {
		if _, err := s.Normalize(interval, capacity); err == nil {
			t.Errorf("bad[%d] %+v: Normalize accepted it", i, s)
		}
	}
}

// TestNilEngine checks every accessor on a nil receiver (the knob-off state).
func TestNilEngine(t *testing.T) {
	var ts *TimeSeries
	if ts.Enabled() || ts.Interval() != 0 {
		t.Error("nil engine should report disabled")
	}
	if delta, rose := ts.Push(TSSample{}); delta != [NumTSCounters]uint64{} || rose != nil {
		t.Error("nil engine Push should return nothing")
	}
	if rep := ts.Report(); rep.Enabled {
		t.Error("nil engine Report should be disabled")
	}
}

// tsSampleAt builds a cumulative sample: totals, not deltas.
func tsSampleAt(nanos int64, commits, aborts uint64) TSSample {
	var s TSSample
	s.UnixNanos = nanos
	s.Counters[TSCommits] = commits
	s.Counters[TSAborts] = aborts
	return s
}

// TestPushDeltaEncoding checks that the first push is baseline-only, later
// pushes record per-window deltas, and counter regressions clamp to zero.
func TestPushDeltaEncoding(t *testing.T) {
	ts := NewTimeSeries(8, 100*time.Millisecond, nil)
	ts.Push(tsSampleAt(0, 100, 10))
	if rep := ts.Report(); rep.Windows != 0 || rep.Seq != 0 {
		t.Fatalf("baseline push created a window: %+v", rep)
	}
	ts.Push(tsSampleAt(1e8, 250, 10))
	rep := ts.Report()
	if rep.Windows != 1 || rep.Seq != 1 {
		t.Fatalf("after one delta push: windows=%d seq=%d", rep.Windows, rep.Seq)
	}
	w := rep.Recent[0]
	if w.Counters["commits"] != 150 || w.Counters["aborts"] != 0 || w.DurNs != 1e8 {
		t.Errorf("window delta: %+v", w)
	}
	if w.AbortRate != 0 {
		t.Errorf("abort rate: %v", w.AbortRate)
	}

	// Regressed counter (torn multi-load snapshot): clamp to zero, not wrap.
	ts.Push(tsSampleAt(2e8, 240, 20))
	w = ts.Report().Recent[1]
	if w.Counters["commits"] != 0 {
		t.Errorf("regression should clamp to 0, got %d", w.Counters["commits"])
	}
	if w.Counters["aborts"] != 10 {
		t.Errorf("independent counter delta: %+v", w.Counters)
	}
	if w.AbortRate != 1.0 {
		t.Errorf("abort rate with clamped commits: %v", w.AbortRate)
	}
}

// TestRingWrap fills a small ring past capacity and checks retention.
func TestRingWrap(t *testing.T) {
	ts := NewTimeSeries(4, 100*time.Millisecond, nil)
	for i := int64(0); i <= 7; i++ {
		ts.Push(tsSampleAt(i*1e8, uint64(i)*100, 0))
	}
	rep := ts.Report()
	if rep.Windows != 4 || rep.Seq != 7 {
		t.Fatalf("windows=%d seq=%d", rep.Windows, rep.Seq)
	}
	// Recent is oldest-first: the four newest windows survive.
	for i, w := range rep.Recent {
		if w.Counters["commits"] != 100 {
			t.Errorf("recent[%d]: %+v", i, w)
		}
	}
	if got := rep.Recent[len(rep.Recent)-1].UnixNanos; got != 7e8 {
		t.Errorf("newest window ends at %d", got)
	}
}

// TestAbortRateBurnAlert drives the multi-window rule end to end: no alert
// while the ring is still filling, no alert when only the fast window burns,
// a single rising-edge alert when both burn, and re-arm after recovery.
func TestAbortRateBurnAlert(t *testing.T) {
	const interval = 100 * time.Millisecond
	slo, err := SLO{Kind: SLOAbortRate, MaxRate: 0.25, Fast: 200 * time.Millisecond, Slow: 400 * time.Millisecond}.Normalize(interval, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTimeSeries(16, interval, []SLO{slo})

	// push returns what Push does: the window's deltas and the alerts that
	// rose on it.
	now, commits, aborts := int64(0), uint64(0), uint64(0)
	push := func(dc, da uint64) ([NumTSCounters]uint64, []SLOAlert) {
		now += int64(interval)
		commits += dc
		aborts += da
		return ts.Push(tsSampleAt(now, commits, aborts))
	}

	if delta, rose := push(100, 0); delta[TSCommits] != 0 || rose != nil {
		t.Fatalf("baseline push returned a window: %v %v", delta, rose)
	}
	// Aborting from the very first window: burn must stay 0 until the ring
	// holds the slow span (startup transients cannot alert).
	for i := 0; i < 3; i++ {
		if delta, rose := push(100, 100); delta[TSAborts] != 100 || rose != nil {
			t.Fatalf("window %d (slow span is 4): delta %v, rose %v", i, delta, rose)
		}
	}
	_, rose := push(100, 100) // 4 windows held: fast rate 0.5 burn 2, slow rate 0.5 burn 2
	if len(rose) != 1 || ts.Report().AlertsTotal != 1 {
		t.Fatalf("alerts after both windows burn: rose %v, total %d", rose, ts.Report().AlertsTotal)
	}
	a := rose[0]
	if a.SLO != "abort-rate" || a.FastBurn < 2 || a.SlowBurn < 2 {
		t.Fatalf("alert: %+v", a)
	}
	if a.Window.Counters["aborts"] != 100 {
		t.Errorf("alert should carry the tripping window: %+v", a.Window)
	}

	// Still firing: no second rising edge.
	if _, rose := push(100, 100); rose != nil || ts.Report().AlertsTotal != 1 {
		t.Fatalf("level-triggered alert (want rising edge only): %v", rose)
	}
	st := ts.Report().SLOs[0]
	if !st.Firing || st.Alerts != 1 {
		t.Fatalf("status: %+v", st)
	}

	// Recovery: clean windows drain both burns below threshold.
	for i := 0; i < 4; i++ {
		push(100, 0)
	}
	if st := ts.Report().SLOs[0]; st.Firing {
		t.Fatalf("still firing after recovery: %+v", st)
	}
	// Relapse: a fresh rising edge records a second alert.
	for i := 0; i < 4; i++ {
		push(100, 100)
	}
	if n := ts.Report().AlertsTotal; n != 2 {
		t.Fatalf("alert count after relapse: %d", n)
	}
}

// TestLatencyBurn checks the p99 objective: the burn is the windowed fraction
// of samples above the objective over the 1% budget, gated on a minimum
// sample count.
func TestLatencyBurn(t *testing.T) {
	const interval = 100 * time.Millisecond
	slo, err := SLO{Kind: SLOLatencyP99, MaxNs: 1 << 20, Fast: 200 * time.Millisecond, Slow: 400 * time.Millisecond}.Normalize(interval, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTimeSeries(16, interval, []SLO{slo})

	var s TSSample
	push := func(fast, slow uint64) {
		s.UnixNanos += int64(interval)
		for i := uint64(0); i < fast; i++ {
			s.Phases[NumTSPhases-1].Record(1000) // well under the objective
		}
		for i := uint64(0); i < slow; i++ {
			s.Phases[NumTSPhases-1].Record(1 << 24) // far over the objective
		}
		ts.Push(s)
	}
	push(0, 0) // baseline
	// Four windows of all-slow samples: every sample blows the objective, so
	// the burn is 1.0/0.01 = 100x on both windows — firing.
	for i := 0; i < 4; i++ {
		push(0, 20)
	}
	st := ts.Report().SLOs[0]
	if !st.Firing || st.FastBurn < 50 || st.SlowBurn < 50 {
		t.Fatalf("latency SLO should fire: %+v", st)
	}
	if n := ts.Report().AlertsTotal; n != 1 {
		t.Fatalf("alert count: %d", n)
	}

	// Under-sampled windows carry no signal: fewer than sloMinSamples slow
	// observations per evaluated span keep the burn at zero.
	ts2 := NewTimeSeries(16, interval, []SLO{slo})
	s = TSSample{}
	for i := 0; i <= 4; i++ {
		s.UnixNanos += int64(interval)
		if i > 0 {
			s.Phases[NumTSPhases-1].Record(1 << 24)
		}
		ts2.Push(s)
	}
	if st := ts2.Report().SLOs[0]; st.Firing || st.FastBurn != 0 {
		t.Fatalf("under-sampled window should not burn: %+v", st)
	}
}

// TestAlertLogBounded drives hundreds of rising edges and checks that the
// retained log stays bounded while the totals keep counting.
func TestAlertLogBounded(t *testing.T) {
	const interval = 100 * time.Millisecond
	slo, err := SLO{Kind: SLOAbortRate, MaxRate: 0.5, Fast: interval, Slow: 2 * interval}.Normalize(interval, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTimeSeries(8, interval, []SLO{slo})
	now, commits, aborts := int64(0), uint64(0), uint64(0)
	push := func(dc, da uint64) {
		now += int64(interval)
		commits += dc
		aborts += da
		ts.Push(tsSampleAt(now, commits, aborts))
	}
	push(100, 0)
	const edges = maxAlerts + 9
	for i := 0; i < edges; i++ {
		push(0, 100) // all-abort: both 1- and 2-window burns hit 2x
		push(0, 100)
		push(100, 0) // recover
		push(100, 0)
	}
	rep := ts.Report()
	if rep.AlertsTotal != edges {
		t.Fatalf("alerts total: %d want %d", rep.AlertsTotal, edges)
	}
	if len(rep.Alerts) != maxAlerts {
		t.Fatalf("retained alert log: %d want %d", len(rep.Alerts), maxAlerts)
	}
	if rep.SLOs[0].Alerts != edges {
		t.Fatalf("per-SLO alert count: %d", rep.SLOs[0].Alerts)
	}
}

// TestTimeSeriesOpenMetrics spot-checks the rendered families and the
// HELP-before-TYPE ordering.
func TestTimeSeriesOpenMetrics(t *testing.T) {
	const interval = 100 * time.Millisecond
	slo, err := SLO{Kind: SLOAbortRate, MaxRate: 0.25, Fast: 200 * time.Millisecond, Slow: 400 * time.Millisecond}.Normalize(interval, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTimeSeries(16, interval, []SLO{slo})
	for i := int64(0); i <= 4; i++ {
		ts.Push(tsSampleAt(i*int64(interval), uint64(i)*100, uint64(i)*150))
	}
	rep := ts.Report()
	var b strings.Builder
	rep.WriteOpenMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP stm_rate ",
		"# TYPE stm_rate gauge",
		`stm_rate{metric="commits",window="100ms"}`,
		`stm_window_quantile_ns{phase="total",q="0.99",window="400ms"}`,
		`stm_slo_burn{slo="abort-rate",window="fast"}`,
		`stm_slo_firing{slo="abort-rate"} 1`,
		`stm_slo_alerts_total{slo="abort-rate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var off strings.Builder
	(&TimeSeriesReport{}).WriteOpenMetrics(&off)
	if !strings.Contains(off.String(), "stm_timeseries_enabled 0") {
		t.Errorf("disabled exposition: %s", off.String())
	}
	if strings.Contains(off.String(), "stm_rate") {
		t.Errorf("disabled exposition should stop at the enabled gauge: %s", off.String())
	}
}
