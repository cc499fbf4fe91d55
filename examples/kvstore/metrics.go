package main

import (
	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/stm"
)

// publishMetrics makes sys the source of the observability endpoints
// (obs.ServeMetrics): the "stm" counters, "stm_conflict", "stm_latency" and
// "stm_timeseries" under /debug/vars (what cmd/stmtop polls), the windowed
// report under /debug/stm/timeseries, and the OpenMetrics page under /metrics.
// A later call replaces an earlier System everywhere.
func publishMetrics(sys *stm.System) {
	obs.Publish("stm", func() any {
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
			"invalidations": st.Invalidations,
			"validations":   st.Validations,
		}
	})
	obs.Publish("stm_conflict", func() any { return sys.ConflictReport() })
	obs.Publish("stm_latency", func() any { return sys.LatencyReport() })
	obs.Publish("stm_timeseries", func() any { return sys.TimeSeriesReport() })
	obs.PublishTimeSeries(func() *obs.TimeSeriesReport {
		rep := sys.TimeSeriesReport()
		return &rep
	})
	obs.PublishOpenMetrics(func() obs.MetricsPage {
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
