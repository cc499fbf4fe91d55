package core

import (
	"strings"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// TestTimeSeriesConfigValidation pins the windowed-telemetry knobs'
// defaulting and range checks.
func TestTimeSeriesConfigValidation(t *testing.T) {
	c, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.TimeSeries != 0 || c.TimeSeriesInterval != 0 {
		t.Errorf("timeseries should default off: %+v", c)
	}

	c, err = Config{TimeSeries: 64}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.TimeSeriesInterval != time.Second {
		t.Errorf("interval default: %v", c.TimeSeriesInterval)
	}
	if !c.Latency {
		t.Error("TimeSeries must imply Latency (the sampler windows its histograms)")
	}

	// Declaring SLOs without the ring auto-enables it at the default size,
	// and Normalize fills the objective's defaults into the config's copy.
	orig := []obs.SLO{{Kind: obs.SLOAbortRate, MaxRate: 0.1}}
	c, err = Config{SLOs: orig}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.TimeSeries != DefaultTimeSeriesWindows {
		t.Errorf("SLOs should auto-enable the ring: TimeSeries=%d", c.TimeSeries)
	}
	if c.SLOs[0].Name != "abort-rate" || c.SLOs[0].Burn != obs.DefaultSLOBurn {
		t.Errorf("SLO not normalized: %+v", c.SLOs[0])
	}
	if orig[0].Name != "" {
		t.Errorf("withDefaults mutated the caller's SLO slice: %+v", orig[0])
	}

	bad := []Config{
		{TimeSeries: 1},       // ring too small
		{TimeSeries: 1 << 17}, // ring too large
		{TimeSeries: 64, TimeSeriesInterval: time.Microsecond},
		{SLOs: []obs.SLO{{Kind: obs.SLOAbortRate}}}, // invalid objective propagates
		{SLOs: []obs.SLO{ // duplicate names
			{Kind: obs.SLOAbortRate, MaxRate: 0.1, Name: "x"},
			{Kind: obs.SLOAbortRate, MaxRate: 0.2, Name: "x"},
		}},
		{TimeSeries: 4, SLOs: []obs.SLO{ // slow window exceeds the ring
			{Kind: obs.SLOAbortRate, MaxRate: 0.1, Fast: time.Second, Slow: time.Minute},
		}},
		// An objective no window can trip would leave the flight recorder
		// without the trigger its operator declared.
		{FlightRecorder: true, SLOs: []obs.SLO{{Kind: obs.SLOAbortRate, MaxRate: 0.6}}},
	}
	for i, b := range bad {
		if _, err := b.withDefaults(); err == nil {
			t.Errorf("bad[%d] %+v accepted", i, b)
		}
	}
}

// TestTimeSeriesOffAbsent: with the knob off there is no engine, no sampler
// goroutine, and the report is disabled — the zero-cost contract.
func TestTimeSeriesOffAbsent(t *testing.T) {
	s := newSys(t, InvalSTM, nil)
	if s.tseries != nil || s.tsStop != nil {
		t.Fatal("TimeSeries=0 must not build an engine or start a sampler")
	}
	if rep := s.TimeSeriesReport(); rep.Enabled {
		t.Fatalf("disabled report: %+v", rep)
	}
}

// TestTSTickDeterministic drives the sampler's tick function directly (the
// interval is a minute, so the background loop contributes only its startup
// baseline) and checks the windowed deltas against known work.
func TestTSTickDeterministic(t *testing.T) {
	s := newSys(t, RInvalV2, func(c *Config) {
		c.TimeSeries = 16
		c.TimeSeriesInterval = time.Minute
		c.LatencySampleEvery = 1
		c.Stats = true
	})
	if s.tsStop == nil {
		t.Fatal("sampler goroutine not started")
	}
	th := s.MustRegister()
	defer th.Close()
	v := NewVar(0)
	for i := 0; i < 100; i++ {
		if err := th.Atomically(func(tx *Tx) error {
			tx.Store(v, tx.Load(v).(int)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.tsTick(time.Now().UnixNano())
	rep := s.TimeSeriesReport()
	if !rep.Enabled || rep.Windows != 1 {
		t.Fatalf("after one tick: %+v", rep)
	}
	w := rep.Recent[0]
	if w.Counters["commits"] != 100 {
		t.Errorf("windowed commits = %d, want 100", w.Counters["commits"])
	}
	if w.Counters["writes"] == 0 || w.Counters["reads"] == 0 {
		t.Errorf("windowed reads/writes: %+v", w.Counters)
	}
	if w.Counters["epochs"] == 0 {
		t.Error("remote engine commits should advance windowed epochs")
	}
	if w.P99TotalNs == 0 {
		t.Error("every-commit latency sampling should give the window a p99")
	}

	// An idle tick appends an empty window: deltas, not cumulative values.
	s.tsTick(time.Now().UnixNano())
	rep = s.TimeSeriesReport()
	if rep.Windows != 2 {
		t.Fatalf("windows after idle tick: %d", rep.Windows)
	}
	if n := rep.Recent[len(rep.Recent)-1].Counters["commits"]; n != 0 {
		t.Errorf("idle window commits = %d, want 0", n)
	}
}

// TestTimeSeriesSamplerLive lets the real sampler goroutine run at a short
// interval and checks that windows accumulate while transactions flow.
func TestTimeSeriesSamplerLive(t *testing.T) {
	s := newSys(t, InvalSTM, func(c *Config) {
		c.TimeSeries = 64
		c.TimeSeriesInterval = 5 * time.Millisecond
	})
	th := s.MustRegister()
	defer th.Close()
	v := NewVar(0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 50; i++ {
			if err := th.Atomically(func(tx *Tx) error {
				tx.Store(v, tx.Load(v).(int)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		rep := s.TimeSeriesReport()
		if rep.Windows >= 2 {
			var commits uint64
			for _, w := range rep.Recent {
				commits += w.Counters["commits"]
			}
			if commits == 0 {
				t.Fatalf("windows with no commits recorded: %+v", rep.Recent)
			}
			if len(rep.Rates) == 0 {
				t.Fatal("report carries no windowed rates")
			}
			return
		}
	}
	t.Fatal("sampler never accumulated two windows")
}

// newBurnSystem arms the flight recorder behind an abort-rate SLO that an
// all-abort window pair trips, and returns a push that fabricates one window
// of dc commits and da aborts ending step after the last one. The sampler's
// interval is a minute so the background loop contributes only the baseline
// startServers pushes; the engine counts windows, not time, so the fabricated
// timestamps are free to run on the cooldown's scale instead.
func newBurnSystem(t *testing.T, dir string) (*System, func(step time.Duration, dc, da uint64)) {
	s := newSys(t, NOrec, func(c *Config) {
		c.TimeSeries = 16
		c.TimeSeriesInterval = time.Minute
		c.SLOs = []obs.SLO{{
			Kind: obs.SLOAbortRate, MaxRate: 0.5,
			Fast: time.Minute, Slow: 2 * time.Minute,
		}}
		c.FlightRecorder = true
		c.FlightDir = dir
	})
	var smp obs.TSSample
	return s, func(step time.Duration, dc, da uint64) {
		smp.UnixNanos += int64(step)
		smp.Counters[obs.TSCommits] += dc
		smp.Counters[obs.TSAborts] += da
		s.tsPush(smp)
	}
}

// TestSLOAlertTriggersFlightDump wires the SLO layer through the flight
// recorder: fabricated all-abort windows trip the burn-rate alert, the flight
// check on the same tick dumps, and the written bundle carries the time-series
// section with the tripping window. A sustained burn is one rising edge, so
// one bundle.
func TestSLOAlertTriggersFlightDump(t *testing.T) {
	dir := t.TempDir()
	s, push := newBurnSystem(t, dir)
	push(time.Second, 100, 0)
	push(time.Second, 0, 100) // the fast window burns, the slow pair is half clean
	if n := s.TimeSeriesReport().AlertsTotal; n != 0 || len(flightBundles(t, dir)) != 0 {
		t.Fatalf("tripped early: %d alerts", n)
	}
	for i := 0; i < 3; i++ {
		push(time.Second, 0, 100) // burn 2x on both windows, then sustained
	}
	if n := s.TimeSeriesReport().AlertsTotal; n != 1 {
		t.Fatalf("alert count: %d", n)
	}
	bundles := flightBundles(t, dir)
	if len(bundles) != 1 || !strings.Contains(bundles[0].Reason, "slo burn: abort-rate") {
		t.Fatalf("want one slo-burn bundle, got %+v", bundles)
	}
	b := bundles[0]
	if b.TimeSeries == nil || !b.TimeSeries.Enabled {
		t.Fatal("bundle missing the time-series section")
	}
	if b.TimeSeries.AlertsTotal != 1 || len(b.TimeSeries.Alerts) != 1 {
		t.Fatalf("bundle alerts: %+v", b.TimeSeries)
	}
	if a := b.TimeSeries.Alerts[0]; a.Window.Counters["aborts"] != 100 {
		t.Fatalf("bundle alert should carry the tripping window: %+v", a)
	}
}

// TestFlightDumpCooldown: a trigger inside the 10 s after a dump, measured on the
// ticks' own timestamps, writes nothing; the first one after it does.
func TestFlightDumpCooldown(t *testing.T) {
	dir := t.TempDir()
	s, push := newBurnSystem(t, dir)
	relapse := func(step time.Duration) {
		push(step, 100, 0) // recover: the fast window stops burning
		push(time.Second, 0, 100)
		push(time.Second, 0, 100) // both windows burn again: a new rising edge
	}
	push(time.Second, 100, 0)
	relapse(time.Second) // dump at t=4s
	relapse(time.Second) // edge at t=7s, inside the cooldown
	if n, b := s.TimeSeriesReport().AlertsTotal, flightBundles(t, dir); n != 2 || len(b) != 1 {
		t.Fatalf("inside the cooldown: %d alerts, %d bundles, want 2 and 1", n, len(b))
	}
	relapse(5 * time.Second) // edge at t=14s
	if n, b := s.TimeSeriesReport().AlertsTotal, flightBundles(t, dir); n != 3 || len(b) != 2 {
		t.Fatalf("after the cooldown: %d alerts, %d bundles, want 3 and 2", n, len(b))
	}
}

// tsRMWLoop is the shared workload for the overhead measurements: a warmed
// single-thread read-modify-write with a pre-boxed value, so the measured
// path is the transaction machinery, not interface boxing.
func tsRMWLoop(th *Thread, v *Var, val any, n int) {
	for i := 0; i < n; i++ {
		_ = th.Atomically(func(tx *Tx) error {
			_ = tx.Load(v)
			tx.Store(v, val)
			return nil
		})
	}
}

// TestTimeSeriesOffZeroAllocs is the acceptance gate for the knob-off cost:
// the transaction path has no time-series record sites at all, so with
// TimeSeries=0 a warmed read-only transaction stays allocation-free (a write
// transaction's first Store always buffers one box, telemetry or not). The
// closure is hoisted so the measurement sees the transaction machinery, not
// closure construction.
func TestTimeSeriesOffZeroAllocs(t *testing.T) {
	s := newSys(t, InvalSTM, nil)
	th := s.MustRegister()
	defer th.Close()
	v := NewVar(0)
	body := func(tx *Tx) error {
		_ = tx.Load(v)
		return nil
	}
	for i := 0; i < 1000; i++ { // warm the logs past their growth phase
		_ = th.Atomically(body)
	}
	if allocs := testing.AllocsPerRun(500, func() { _ = th.Atomically(body) }); allocs != 0 {
		t.Errorf("TimeSeries=0 transaction allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkTimeSeriesOverhead compares the per-transaction cost across the
// telemetry tiers. "off" and "on" must be indistinguishable — the engine has
// no hot-path record sites; the sampler reads counters the latency layer
// already maintains — so the only cost of TimeSeries is the Latency knob it
// implies ("latency-only" isolates that step).
func BenchmarkTimeSeriesOverhead(b *testing.B) {
	run := func(b *testing.B, mutate func(*Config)) {
		cfg := Config{Algo: InvalSTM, MaxThreads: 4, InvalServers: 1}
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		th := s.MustRegister()
		defer th.Close()
		v := NewVar(0)
		var val any = 7
		tsRMWLoop(th, v, val, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		tsRMWLoop(th, v, val, b.N)
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("latency-only", func(b *testing.B) {
		run(b, func(c *Config) { c.Latency = true })
	})
	b.Run("on", func(b *testing.B) {
		run(b, func(c *Config) {
			c.TimeSeries = 256
			c.TimeSeriesInterval = 25 * time.Millisecond
			c.SLOs = []obs.SLO{{
				Kind: obs.SLOAbortRate, MaxRate: 0.5,
				Fast: 250 * time.Millisecond, Slow: time.Second,
			}}
		})
	})
}
