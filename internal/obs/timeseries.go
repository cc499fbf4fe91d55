// Windowed telemetry: the in-process time-series engine behind
// Config.TimeSeries (DESIGN.md §15). Every other signal the system emits is
// cumulative-since-start; this file adds the time axis. A single sampler
// goroutine (core's tsLoop) periodically snapshots the cumulative counters
// and latency histograms into a TSSample and Pushes it here; Push
// delta-encodes the sample against the previous one into a bounded,
// preallocated ring of windows — no allocation on the sampling path — and
// evaluates the declared SLOs with multi-window burn rates (fast/slow window
// pairs, the SRE error-budget alerting rule). Report() derives windowed
// rates, moving quantiles, sparkline-ready recent windows, and the SLO/alert
// state; WriteOpenMetrics renders the same as stm_rate{metric,window} (and
// friends) gauges.
//
// Concurrency: one writer (the sampler) and any number of concurrent
// readers, all serialized by one mutex. The engine is deliberately off the
// transaction hot path — there are no per-transaction record sites at all;
// the sampler reads counters the other observability knobs already maintain
// — so a mutex at sampling frequency (default 1 Hz) is free.
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/ssrg-vt/rinval/internal/histo"
)

// TSCounter indexes one windowed counter metric in a TSSample.
type TSCounter uint8

const (
	// TSCommits: committed transactions.
	TSCommits TSCounter = iota
	// TSAborts: conflict aborts.
	TSAborts
	// TSAbortInvalidated .. TSAbortExplicit: the abort-reason taxonomy.
	TSAbortInvalidated
	TSAbortValidation
	TSAbortLocked
	TSAbortExplicit
	// TSReadOnly: committed transactions that wrote nothing.
	TSReadOnly
	// TSROCommits / TSROFallbacks: multi-version snapshot reads (Versions > 0).
	TSROCommits
	TSROFallbacks
	// TSReads / TSWrites: transactional loads/stores (all attempts).
	TSReads
	TSWrites
	// TSEpochs: commit-server timestamp transitions (group-commit epochs).
	TSEpochs
	// TSCrossShard: commits retired through the two-phase shard handshake.
	TSCrossShard
	// TSBloomFPSampled / TSBloomFPFalse: sampled exact-intersection bloom
	// false-positive checks and how many were false positives (Attribution).
	TSBloomFPSampled
	TSBloomFPFalse
	// TSWastedNs: wasted-work nanoseconds across abort reasons (Attribution).
	TSWastedNs

	// NumTSCounters bounds the enum, for the sample/window arrays.
	NumTSCounters
)

// String returns the stable metric label used in reports and /metrics.
func (c TSCounter) String() string {
	switch c {
	case TSCommits:
		return "commits"
	case TSAborts:
		return "aborts"
	case TSAbortInvalidated:
		return "aborts_invalidated"
	case TSAbortValidation:
		return "aborts_validation"
	case TSAbortLocked:
		return "aborts_locked"
	case TSAbortExplicit:
		return "aborts_explicit"
	case TSReadOnly:
		return "readonly"
	case TSROCommits:
		return "ro_commits"
	case TSROFallbacks:
		return "ro_fallbacks"
	case TSReads:
		return "reads"
	case TSWrites:
		return "writes"
	case TSEpochs:
		return "epochs"
	case TSCrossShard:
		return "cross_shard_commits"
	case TSBloomFPSampled:
		return "bloom_fp_checks"
	case TSBloomFPFalse:
		return "bloom_fp"
	case TSWastedNs:
		return "wasted_ns"
	default:
		return fmt.Sprintf("TSCounter(%d)", int(c))
	}
}

// TSPhases lists the client latency phases the engine windows, in sample
// order; NumTSPhases sizes the per-window histogram arrays.
var TSPhases = [...]LatPhase{LatApp, LatRetry, LatCommitWait, LatTotal}

// NumTSPhases is len(TSPhases) as an array bound.
const NumTSPhases = 4

// tsPhaseIndex maps a phase name to its TSPhases index, or -1.
func tsPhaseIndex(name string) int {
	for i, p := range TSPhases {
		if p.String() == name {
			return i
		}
	}
	return -1
}

// TSSample is one cumulative observation: counter totals and client-phase
// latency histograms as of UnixNanos. The engine delta-encodes consecutive
// samples; callers hand it cumulative values, never deltas.
type TSSample struct {
	UnixNanos int64
	Counters  [NumTSCounters]uint64
	Phases    [NumTSPhases]histo.Histogram
}

// tsWindow is one delta-encoded ring entry: what happened between two
// consecutive samples.
type tsWindow struct {
	unixNanos int64 // window end
	durNs     int64
	counters  [NumTSCounters]uint64
	phases    [NumTSPhases]histo.Histogram
}

// SLOKind selects what an SLO constrains.
type SLOKind uint8

const (
	// SLOAbortRate bounds the windowed abort rate aborts/(commits+aborts);
	// the objective is MaxRate and the burn rate is observed/MaxRate.
	SLOAbortRate SLOKind = iota
	// SLOLatencyP99 bounds a client phase's p99: "99% of sampled
	// transactions complete the phase within MaxNs". The error budget is
	// the 1% tail; the burn rate is the fraction of windowed samples whose
	// histogram bucket lies above MaxNs, divided by that 1% budget.
	SLOLatencyP99
)

// String returns the stable kind name.
func (k SLOKind) String() string {
	switch k {
	case SLOAbortRate:
		return "abort-rate"
	case SLOLatencyP99:
		return "latency-p99"
	default:
		return fmt.Sprintf("SLOKind(%d)", int(k))
	}
}

// Default burn-rate window pair and threshold (the SRE multi-window rule:
// alert only when both a fast and a slow window burn the budget, so a blip
// doesn't page and a slow bleed still does).
const (
	DefaultSLOFast = 5 * time.Second
	DefaultSLOSlow = 60 * time.Second
	DefaultSLOBurn = 2.0
)

// sloMinSamples is the minimum windowed latency-sample count before a
// latency SLO's burn is considered meaningful: a tail fraction over fewer
// samples is one slow transaction, not a trend.
const sloMinSamples = 8

// latencyErrBudget is the error budget implied by a p99 objective: 1% of
// requests may exceed it.
const latencyErrBudget = 0.01

// SLO declares one service-level objective evaluated by the time-series
// engine. Zero-valued knobs are defaulted by Normalize (which core's config
// validation calls): Fast/Slow fall back to the 5s/60s pair, Burn to 2.
type SLO struct {
	// Name labels the objective in reports, metrics, and flight-dump
	// reasons. Defaults to the kind name (plus the phase for latency SLOs).
	Name string `json:"name"`
	// Kind selects the constrained signal.
	Kind SLOKind `json:"kind"`
	// MaxRate is the SLOAbortRate objective, a fraction in (0,1].
	MaxRate float64 `json:"max_rate,omitempty"`
	// MaxNs is the SLOLatencyP99 objective in nanoseconds.
	MaxNs uint64 `json:"max_ns,omitempty"`
	// Phase selects the client phase a latency SLO constrains: "app",
	// "retry", "commit-wait", or "total" (the default).
	Phase string `json:"phase,omitempty"`
	// Fast and Slow are the burn-rate window pair; an alert fires only when
	// both windows' burns reach Burn. Each window is rounded up to whole
	// sampling intervals and only evaluates once the ring holds its full
	// span (so startup transients cannot alert).
	Fast time.Duration `json:"fast,omitempty"`
	Slow time.Duration `json:"slow,omitempty"`
	// Burn is the burn-rate threshold (multiples of the error budget).
	Burn float64 `json:"burn,omitempty"`
}

// Normalize fills defaults and validates the objective against the engine's
// sampling interval and ring capacity.
func (o SLO) Normalize(interval time.Duration, capacity int) (SLO, error) {
	switch o.Kind {
	case SLOAbortRate:
		if o.MaxRate <= 0 || o.MaxRate > 1 {
			return o, fmt.Errorf("obs: abort-rate SLO needs MaxRate in (0,1], got %v", o.MaxRate)
		}
		if o.Name == "" {
			o.Name = o.Kind.String()
		}
	case SLOLatencyP99:
		if o.MaxNs == 0 {
			return o, fmt.Errorf("obs: latency SLO needs MaxNs > 0")
		}
		if o.Phase == "" {
			o.Phase = LatTotal.String()
		}
		if tsPhaseIndex(o.Phase) < 0 {
			return o, fmt.Errorf("obs: latency SLO phase %q is not a client phase", o.Phase)
		}
		if o.Name == "" {
			o.Name = o.Kind.String() + "-" + o.Phase
		}
	default:
		return o, fmt.Errorf("obs: unknown SLO kind %d", o.Kind)
	}
	if o.Fast == 0 {
		o.Fast = DefaultSLOFast
	}
	if o.Slow == 0 {
		o.Slow = DefaultSLOSlow
	}
	if o.Burn == 0 {
		o.Burn = DefaultSLOBurn
	}
	if o.Burn < 1 {
		return o, fmt.Errorf("obs: SLO burn threshold %v below 1", o.Burn)
	}
	// An objective whose largest possible burn (every transaction aborts, or
	// every sample is in the tail) is below its threshold can never fire.
	maxBurn := 1 / latencyErrBudget
	if o.Kind == SLOAbortRate {
		maxBurn = 1 / o.MaxRate
	}
	if o.Burn > maxBurn {
		return o, fmt.Errorf("obs: SLO %s can never fire: burn threshold %v above its maximum burn %v", o.Objective(), o.Burn, maxBurn)
	}
	if o.Fast < interval {
		return o, fmt.Errorf("obs: SLO fast window %v below the sampling interval %v", o.Fast, interval)
	}
	if o.Fast >= o.Slow {
		return o, fmt.Errorf("obs: SLO fast window %v not below slow window %v", o.Fast, o.Slow)
	}
	if k := windowsFor(o.Slow, interval); k > capacity {
		return o, fmt.Errorf("obs: SLO slow window %v needs %d windows, ring holds %d", o.Slow, k, capacity)
	}
	return o, nil
}

// Objective renders the target as a human-readable string for reports.
func (o SLO) Objective() string {
	if o.Kind == SLOAbortRate {
		return fmt.Sprintf("abort-rate<=%.3g", o.MaxRate)
	}
	return fmt.Sprintf("p99(%s)<=%v", o.Phase, time.Duration(o.MaxNs))
}

// windowsFor converts a span into whole sampling windows, rounding up.
func windowsFor(span, interval time.Duration) int {
	k := int((span + interval - 1) / interval)
	if k < 1 {
		k = 1
	}
	return k
}

// sloState is one objective's between-push memory.
type sloState struct {
	cfg      SLO
	phase    int // TSPhases index for latency SLOs
	fastK    int // window counts of the burn pair
	slowK    int
	fastBurn float64
	slowBurn float64
	firing   bool
	alerts   uint64
}

// SLOAlert records one rising edge of an objective's firing state, with the
// window that tripped it — what the flight bundle carries so "which window
// was bad" survives the incident.
type SLOAlert struct {
	SLO       string         `json:"slo"`
	UnixNanos int64          `json:"unix_nanos"`
	Seq       uint64         `json:"seq"` // the tripping window's sequence number
	FastBurn  float64        `json:"fast_burn"`
	SlowBurn  float64        `json:"slow_burn"`
	Burn      float64        `json:"burn_threshold"`
	Window    TSWindowReport `json:"window"`
}

// maxAlerts bounds the retained alert log; older alerts age out (the total
// count keeps climbing in AlertsTotal).
const maxAlerts = 64

// TimeSeries is the windowed telemetry engine: a bounded ring of
// delta-encoded windows plus the SLO evaluation state. All methods are
// nil-receiver-safe so core can hold a nil *TimeSeries when the knob is off.
type TimeSeries struct {
	mu       sync.Mutex
	interval time.Duration
	ring     []tsWindow
	head     int // next write index
	n        int // filled entries
	seq      uint64
	prev     TSSample
	havePrev bool
	slos     []sloState
	alerts   []SLOAlert
	alertN   uint64
}

// NewTimeSeries builds an engine retaining capacity windows of length
// interval, evaluating slos (already Normalized) on every push. The ring is
// allocated up front — at the default 600 windows it holds ~1.4 MiB — so
// Push never allocates.
func NewTimeSeries(capacity int, interval time.Duration, slos []SLO) *TimeSeries {
	ts := &TimeSeries{
		interval: interval,
		ring:     make([]tsWindow, capacity),
		slos:     make([]sloState, len(slos)),
		alerts:   make([]SLOAlert, 0, maxAlerts),
	}
	for i, o := range slos {
		ts.slos[i] = sloState{
			cfg:   o,
			phase: tsPhaseIndex(o.Phase),
			fastK: windowsFor(o.Fast, interval),
			slowK: windowsFor(o.Slow, interval),
		}
	}
	return ts
}

// Enabled reports whether the engine is collecting. Nil-safe.
//
//stm:hotpath
func (ts *TimeSeries) Enabled() bool { return ts != nil }

// Interval returns the window length (0 on a nil engine).
//
//stm:hotpath
func (ts *TimeSeries) Interval() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.interval
}

// window returns the ring entry age windows back (0 = newest). Caller holds
// mu and guarantees age < n.
func (ts *TimeSeries) window(age int) *tsWindow {
	return &ts.ring[(ts.head-1-age+len(ts.ring))%len(ts.ring)]
}

// Push feeds one cumulative sample. The first push only establishes the
// delta baseline; each later push appends one window and re-evaluates the
// SLOs. It returns the appended window's counter deltas and the alerts that
// rose on it (all zero and nil for the baseline push and on a nil
// engine) — what core's flight check consumes. Single sampler goroutine; no
// allocation (alert rising edges aside, which append into a preallocated
// bounded log).
func (ts *TimeSeries) Push(s TSSample) (delta [NumTSCounters]uint64, rose []SLOAlert) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !ts.havePrev {
		ts.prev, ts.havePrev = s, true
		return
	}
	w := &ts.ring[ts.head]
	w.unixNanos = s.UnixNanos
	w.durNs = s.UnixNanos - ts.prev.UnixNanos
	if w.durNs <= 0 {
		w.durNs = int64(ts.interval)
	}
	for i := range w.counters {
		// Clamp regressions to zero: counters are monotone, but the sampler
		// reads them one atomic load at a time, so a snapshot is not a
		// single instant.
		if d := s.Counters[i] - ts.prev.Counters[i]; s.Counters[i] >= ts.prev.Counters[i] {
			w.counters[i] = d
		} else {
			w.counters[i] = 0
		}
	}
	for i := range w.phases {
		w.phases[i] = histo.Delta(&s.Phases[i], &ts.prev.Phases[i])
	}
	ts.prev = s
	ts.head = (ts.head + 1) % len(ts.ring)
	if ts.n < len(ts.ring) {
		ts.n++
	}
	ts.seq++
	return w.counters, ts.evalSLOs(w)
}

// sumCounter folds counter c over the newest k windows. Caller holds mu.
func (ts *TimeSeries) sumCounter(c TSCounter, k int) uint64 {
	var n uint64
	for age := 0; age < k; age++ {
		n += ts.window(age).counters[c]
	}
	return n
}

// mergePhaseWindows folds phase index p over the newest k windows into dst.
// Caller holds mu.
func (ts *TimeSeries) mergePhaseWindows(dst *histo.Histogram, p, k int) {
	for age := 0; age < k; age++ {
		dst.Merge(&ts.window(age).phases[p])
	}
}

// burnOver computes one objective's burn rate over the newest k windows.
// Returns 0 before the ring holds the full span (no startup alerts) or when
// the span carries no signal. Caller holds mu.
func (ts *TimeSeries) burnOver(st *sloState, k int) float64 {
	if ts.n < k {
		return 0
	}
	if st.cfg.Kind == SLOAbortRate {
		commits := ts.sumCounter(TSCommits, k)
		aborts := ts.sumCounter(TSAborts, k)
		if commits+aborts == 0 {
			return 0
		}
		rate := float64(aborts) / float64(commits+aborts)
		return rate / st.cfg.MaxRate
	}
	var h histo.Histogram
	ts.mergePhaseWindows(&h, st.phase, k)
	if h.Count() < sloMinSamples {
		return 0
	}
	frac := float64(h.CountAbove(st.cfg.MaxNs)) / float64(h.Count())
	return frac / latencyErrBudget
}

// evalSLOs re-evaluates every objective against the just-pushed window w,
// records rising edges into the alert log and returns them. Caller holds mu.
func (ts *TimeSeries) evalSLOs(w *tsWindow) (rose []SLOAlert) {
	for i := range ts.slos {
		st := &ts.slos[i]
		st.fastBurn = ts.burnOver(st, st.fastK)
		st.slowBurn = ts.burnOver(st, st.slowK)
		firing := st.fastBurn >= st.cfg.Burn && st.slowBurn >= st.cfg.Burn
		if firing && !st.firing {
			st.alerts++
			ts.alertN++
			if len(ts.alerts) == maxAlerts {
				copy(ts.alerts, ts.alerts[1:])
				ts.alerts = ts.alerts[:maxAlerts-1]
			}
			a := SLOAlert{
				SLO:       st.cfg.Name,
				UnixNanos: w.unixNanos,
				Seq:       ts.seq,
				FastBurn:  st.fastBurn,
				SlowBurn:  st.slowBurn,
				Burn:      st.cfg.Burn,
				Window:    windowReport(w),
			}
			ts.alerts = append(ts.alerts, a)
			rose = append(rose, a)
		}
		st.firing = firing
	}
	return rose
}

// TSWindowReport is one window's exported form: the non-zero counter deltas
// plus the derived signals a trend panel needs.
type TSWindowReport struct {
	UnixNanos  int64             `json:"unix_nanos"`
	DurNs      int64             `json:"dur_ns"`
	Counters   map[string]uint64 `json:"counters,omitempty"` // zero deltas elided
	AbortRate  float64           `json:"abort_rate"`
	P50TotalNs uint64            `json:"p50_total_ns"`
	P99TotalNs uint64            `json:"p99_total_ns"`
}

// windowReport builds one window's exported form.
func windowReport(w *tsWindow) TSWindowReport {
	rep := TSWindowReport{UnixNanos: w.unixNanos, DurNs: w.durNs}
	rep.Counters = make(map[string]uint64, NumTSCounters)
	for c := TSCounter(0); c < NumTSCounters; c++ {
		if n := w.counters[c]; n != 0 {
			rep.Counters[c.String()] = n
		}
	}
	total := w.counters[TSCommits] + w.counters[TSAborts]
	if total > 0 {
		rep.AbortRate = float64(w.counters[TSAborts]) / float64(total)
	}
	t := &w.phases[NumTSPhases-1] // TSPhases ends with LatTotal
	rep.P50TotalNs = t.Quantile(0.5)
	rep.P99TotalNs = t.Quantile(0.99)
	return rep
}

// TSRate is one counter's rate over one span.
type TSRate struct {
	Metric string  `json:"metric"`
	Window string  `json:"window"`
	Delta  uint64  `json:"delta"`
	PerSec float64 `json:"per_sec"`
}

// TSQuantile is one client phase's moving quantiles over one span.
type TSQuantile struct {
	Phase  string `json:"phase"`
	Window string `json:"window"`
	Count  uint64 `json:"count"`
	P50Ns  uint64 `json:"p50_ns"`
	P99Ns  uint64 `json:"p99_ns"`
}

// SLOStatus is one objective's current evaluation state.
type SLOStatus struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Objective string  `json:"objective"`
	Fast      string  `json:"fast"`
	Slow      string  `json:"slow"`
	Burn      float64 `json:"burn_threshold"`
	FastBurn  float64 `json:"fast_burn"`
	SlowBurn  float64 `json:"slow_burn"`
	Firing    bool    `json:"firing"`
	Alerts    uint64  `json:"alerts"`
}

// TimeSeriesReport is the exported point-in-time view of the engine:
// windowed rates and quantiles over the standard spans, the newest windows
// for sparklines, and the SLO/alert state.
type TimeSeriesReport struct {
	Enabled     bool             `json:"enabled"`
	IntervalNs  int64            `json:"interval_ns"`
	Capacity    int              `json:"capacity"`
	Windows     int              `json:"windows"`
	Seq         uint64           `json:"seq"`
	Rates       []TSRate         `json:"rates,omitempty"`
	Quantiles   []TSQuantile     `json:"quantiles,omitempty"`
	Recent      []TSWindowReport `json:"recent,omitempty"` // oldest first
	SLOs        []SLOStatus      `json:"slos,omitempty"`
	Alerts      []SLOAlert       `json:"alerts,omitempty"`
	AlertsTotal uint64           `json:"alerts_total"`
}

// maxRecent caps the sparkline window list a report carries.
const maxRecent = 60

// reportSpans returns the deduplicated, ascending list of spans a report
// evaluates: one window, the default fast/slow pair, and every SLO's pair.
func (ts *TimeSeries) reportSpans() []time.Duration {
	spans := []time.Duration{ts.interval, DefaultSLOFast, DefaultSLOSlow}
	for i := range ts.slos {
		spans = append(spans, ts.slos[i].cfg.Fast, ts.slos[i].cfg.Slow)
	}
	seen := map[int]bool{}
	out := spans[:0]
	for _, sp := range spans {
		k := windowsFor(sp, ts.interval)
		if k > ts.n {
			k = ts.n // clamp to available history
		}
		if k < 1 || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, time.Duration(k)*ts.interval)
	}
	return out
}

// Report builds the exported view. Nil-safe: a nil engine reports
// Enabled=false. Allocates freely — it is a cold endpoint path.
func (ts *TimeSeries) Report() TimeSeriesReport {
	if ts == nil {
		return TimeSeriesReport{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rep := TimeSeriesReport{
		Enabled:     true,
		IntervalNs:  int64(ts.interval),
		Capacity:    len(ts.ring),
		Windows:     ts.n,
		Seq:         ts.seq,
		AlertsTotal: ts.alertN,
	}
	for _, span := range ts.reportSpans() {
		k := windowsFor(span, ts.interval)
		label := span.String()
		var durNs int64
		for age := 0; age < k; age++ {
			durNs += ts.window(age).durNs
		}
		secs := float64(durNs) / 1e9
		for c := TSCounter(0); c < NumTSCounters; c++ {
			d := ts.sumCounter(c, k)
			r := TSRate{Metric: c.String(), Window: label, Delta: d}
			if secs > 0 {
				r.PerSec = float64(d) / secs
			}
			rep.Rates = append(rep.Rates, r)
		}
		for p := range TSPhases {
			var h histo.Histogram
			ts.mergePhaseWindows(&h, p, k)
			rep.Quantiles = append(rep.Quantiles, TSQuantile{
				Phase:  TSPhases[p].String(),
				Window: label,
				Count:  h.Count(),
				P50Ns:  h.Quantile(0.5),
				P99Ns:  h.Quantile(0.99),
			})
		}
	}
	recent := ts.n
	if recent > maxRecent {
		recent = maxRecent
	}
	for age := recent - 1; age >= 0; age-- {
		rep.Recent = append(rep.Recent, windowReport(ts.window(age)))
	}
	for i := range ts.slos {
		st := &ts.slos[i]
		rep.SLOs = append(rep.SLOs, SLOStatus{
			Name:      st.cfg.Name,
			Kind:      st.cfg.Kind.String(),
			Objective: st.cfg.Objective(),
			Fast:      (time.Duration(st.fastK) * ts.interval).String(),
			Slow:      (time.Duration(st.slowK) * ts.interval).String(),
			Burn:      st.cfg.Burn,
			FastBurn:  st.fastBurn,
			SlowBurn:  st.slowBurn,
			Firing:    st.firing,
			Alerts:    st.alerts,
		})
	}
	rep.Alerts = append(rep.Alerts, ts.alerts...)
	return rep
}

// WriteOpenMetrics renders the report as gauge families: windowed rates per
// metric and span, moving quantiles per phase and span, and the SLO burn
// state. Cumulative counters already have their own families; these are the
// time-axis view.
func (r *TimeSeriesReport) WriteOpenMetrics(w io.Writer) {
	family(w, "stm_timeseries_enabled", "gauge", "Whether the windowed telemetry engine is collecting.")
	fmt.Fprintf(w, "stm_timeseries_enabled %d\n", b2i(r.Enabled))
	if !r.Enabled {
		return
	}
	family(w, "stm_timeseries_windows", "gauge", "Delta-encoded windows currently retained in the ring.")
	fmt.Fprintf(w, "stm_timeseries_windows %d\n", r.Windows)
	family(w, "stm_rate", "gauge", "Windowed event rate per second, by metric and trailing window.")
	for _, rt := range r.Rates {
		fmt.Fprintf(w, "stm_rate{metric=%q,window=%q} %g\n", rt.Metric, rt.Window, rt.PerSec)
	}
	family(w, "stm_window_quantile_ns", "gauge", "Moving client-phase latency quantiles over the trailing window, in nanoseconds.")
	for _, q := range r.Quantiles {
		fmt.Fprintf(w, "stm_window_quantile_ns{phase=%q,q=\"0.5\",window=%q} %d\n", q.Phase, q.Window, q.P50Ns)
		fmt.Fprintf(w, "stm_window_quantile_ns{phase=%q,q=\"0.99\",window=%q} %d\n", q.Phase, q.Window, q.P99Ns)
	}
	if len(r.SLOs) == 0 {
		return
	}
	family(w, "stm_slo_burn", "gauge", "SLO error-budget burn rate over the fast and slow windows (1 = burning exactly the budget).")
	for _, s := range r.SLOs {
		fmt.Fprintf(w, "stm_slo_burn{slo=%q,window=\"fast\"} %g\n", s.Name, s.FastBurn)
		fmt.Fprintf(w, "stm_slo_burn{slo=%q,window=\"slow\"} %g\n", s.Name, s.SlowBurn)
	}
	family(w, "stm_slo_firing", "gauge", "Whether the SLO's fast and slow burns both exceed its threshold.")
	for _, s := range r.SLOs {
		fmt.Fprintf(w, "stm_slo_firing{slo=%q} %d\n", s.Name, b2i(s.Firing))
	}
	family(w, "stm_slo_alerts", "counter", "Rising edges of the SLO's firing state since start.")
	for _, s := range r.SLOs {
		fmt.Fprintf(w, "stm_slo_alerts_total{slo=%q} %d\n", s.Name, s.Alerts)
	}
}
