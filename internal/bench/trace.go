package bench

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/stm"
)

// tracePath, when non-empty, makes every live benchmark run with
// Config.Trace set and write a Chrome trace-event file after it quiesces.
// Sweeps overwrite the file per point, so it holds the last point run —
// useful with a single-point invocation (one algo, one thread count).
var tracePath string

// TraceTo directs live benchmark runs to record lifecycle traces into the
// Chrome trace-event file at path ("" disables). Not safe to call
// concurrently with a running benchmark.
func TraceTo(path string) { tracePath = path }

// serving, set while ServeMetrics' endpoint is up, makes every live rbtree
// run collect what the endpoint publishes: conflict attribution, the latency
// decomposition and the windowed time series behind cmd/stmtop's panels.
var serving bool

// ServeMetrics serves the observability endpoints (obs.ServeMetrics) on addr
// and arms the telemetry they report for the live benchmark runs that follow.
// Like TraceTo, not safe to call concurrently with a running benchmark.
func ServeMetrics(addr string) (string, func() error, error) {
	bound, shutdown, err := obs.ServeMetrics(addr)
	if err != nil {
		return "", nil, err
	}
	serving = true
	return bound, func() error { serving = false; return shutdown() }, nil
}

// liveSys is the most recently started benchmark System, exposed to the
// expvar metrics endpoint so `-metrics` shows live counters mid-run.
var liveSys atomic.Pointer[stm.System]

func init() {
	obs.Publish("stm", func() any {
		sys := liveSys.Load()
		if sys == nil {
			return nil
		}
		st := sys.Stats()
		reasons := map[string]uint64{}
		for _, r := range obs.AbortReasons {
			reasons[r.String()] = st.AbortReasons[r]
		}
		return map[string]any{
			"algo":          sys.Algo().String(),
			"commits":       st.Commits,
			"aborts":        st.Aborts,
			"abort_reasons": reasons,
			"self_aborts":   st.SelfAborts,
			"invalidations": st.Invalidations,
			"validations":   st.Validations,
		}
	})
	// The conflict-attribution snapshot, twice: as JSON under /debug/vars
	// (what cmd/stmtop polls) and as the OpenMetrics source behind /metrics.
	obs.Publish("stm_conflict", func() any {
		sys := liveSys.Load()
		if sys == nil {
			return nil
		}
		return sys.ConflictReport()
	})
	// Live latency decomposition for cmd/stmtop's latency panel.
	obs.Publish("stm_latency", func() any {
		sys := liveSys.Load()
		if sys == nil {
			return nil
		}
		return sys.LatencyReport()
	})
	// Windowed telemetry for cmd/stmtop's sparkline panel and the JSON
	// endpoint.
	obs.Publish("stm_timeseries", func() any {
		sys := liveSys.Load()
		if sys == nil {
			return nil
		}
		return sys.TimeSeriesReport()
	})
	obs.PublishTimeSeries(func() *obs.TimeSeriesReport {
		sys := liveSys.Load()
		if sys == nil {
			return nil
		}
		rep := sys.TimeSeriesReport()
		return &rep
	})
	obs.PublishOpenMetrics(func() obs.MetricsPage {
		sys := liveSys.Load()
		if sys == nil {
			return obs.MetricsPage{}
		}
		page := obs.MetricsPage{
			Conflict: sys.ConflictReport(),
			Latency:  sys.LatencyReport(),
			Server:   sys.ServerPhaseHistograms(),
		}
		if rep := sys.TimeSeriesReport(); rep.Enabled {
			page.TimeSeries = &rep
		}
		return page
	})
}

// finishTrace closes sys (idempotent; benchmarks also defer Close) and, when
// TraceTo is active, exports its trace. Closing first quiesces the server
// goroutines so the export reads stable rings.
func finishTrace(sys *stm.System) error {
	liveSys.CompareAndSwap(sys, nil)
	if tracePath == "" {
		return nil
	}
	if err := sys.Close(); err != nil {
		return err
	}
	tr := sys.Tracer()
	if tr == nil {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return fmt.Errorf("bench: trace export: %w", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("bench: trace export: %w", err)
	}
	return f.Close()
}

// clientLabeled runs fn with a pprof goroutine label identifying it as an
// STM client worker, matching the server-side labels the core applies.
func clientLabeled(w int, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("stm-role", fmt.Sprintf("client-%d", w)),
		func(context.Context) { fn() })
}
