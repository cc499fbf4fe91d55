package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"sync/atomic"
)

// published maps expvar names to an indirection cell holding the current
// snapshot func. expvar.Publish panics on re-registration, so the expvar
// entry is registered once per name and reads the cell — re-Publishing a
// name swaps the cell contents, which is what lets tests and benchmarks
// create System after System without /debug/vars serving the first one's
// stats forever.
var (
	publishMu sync.Mutex
	published = map[string]*atomic.Pointer[func() any]{}
)

// Publish registers fn under name on the process-wide expvar registry.
// Unlike expvar.Publish, re-publishing an existing name is not an error:
// the name's expvar entry is redirected to the new fn, so the endpoint
// always serves the most recently published snapshot source.
func Publish(name string, fn func() any) {
	publishMu.Lock()
	defer publishMu.Unlock()
	cell, ok := published[name]
	if !ok {
		cell = &atomic.Pointer[func() any]{}
		published[name] = cell
		expvar.Publish(name, expvar.Func(func() any {
			return (*cell.Load())()
		}))
	}
	cell.Store(&fn)
}

// family writes one metric family's # HELP and # TYPE header. Every family
// the package exposes goes through it, which is what the exposition
// conformance test (every # TYPE has a matching # HELP) leans on.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// serverFamilyHelp maps the server-side histogram families to their # HELP
// text; families added by future engines fall back to a generic line rather
// than omitting HELP (the conformance test requires one per TYPE).
var serverFamilyHelp = map[string]string{
	"stm_server_queue_depth": "Pending commit requests observed by each epoch's collection scan.",
	"stm_server_step_ahead":  "RInvalV3 step-ahead occupancy when each epoch started.",
	"stm_batch_size":         "Group-commit batch sizes, one sample per epoch.",
}

// MetricsPage is everything one /metrics scrape exposes: the conflict
// report's scalar counters, the critical-path latency histograms, the
// commit streams' per-epoch histograms — the latter two as proper OpenMetrics
// histogram families with cumulative le buckets — and, when the windowed
// telemetry engine is on, its rate/quantile/SLO gauges.
type MetricsPage struct {
	Conflict ConflictReport
	Latency  LatencyReport
	// Server holds histogram-typed series beyond the latency report — the
	// Stats.Server and batch-size histograms, one NamedHistogram per
	// (family, label set) child; families are grouped for # TYPE lines in
	// first-appearance order.
	Server []NamedHistogram
	// TimeSeries is the windowed-telemetry report, nil when
	// Config.TimeSeries is off (the families are then absent entirely).
	TimeSeries *TimeSeriesReport
}

// WriteOpenMetrics renders the whole page (no trailing # EOF; the handler
// appends it once).
func (p *MetricsPage) WriteOpenMetrics(w io.Writer) {
	p.Conflict.WriteOpenMetrics(w)
	p.Latency.WriteOpenMetrics(w)
	typed := map[string]bool{}
	for i := range p.Server {
		nh := &p.Server[i]
		if !typed[nh.Name] {
			typed[nh.Name] = true
			help, ok := serverFamilyHelp[nh.Name]
			if !ok {
				help = "Server-side histogram family."
			}
			family(w, nh.Name, "histogram", help)
		}
		WriteOpenMetricsHistogram(w, nh.Name, nh.Labels, nh.Hist.NonEmptyBuckets(), nh.Hist.Count(), nh.Hist.Sum())
	}
	if p.TimeSeries != nil {
		p.TimeSeries.WriteOpenMetrics(w)
	}
}

// openMetricsSource holds the current OpenMetrics page source for the
// /metrics endpoint, swappable the same way Publish entries are.
var openMetricsSource atomic.Pointer[func() MetricsPage]

// PublishOpenMetrics sets the page source behind the /metrics endpoint.
// Later calls replace earlier ones (latest System wins, matching Publish).
func PublishOpenMetrics(fn func() MetricsPage) {
	openMetricsSource.Store(&fn)
}

// serveOpenMetrics renders the current page source as an OpenMetrics text
// exposition. With no source published it serves an empty exposition rather
// than an error, so scrapers configured before the first System come up clean.
func serveOpenMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if fn := openMetricsSource.Load(); fn != nil {
		page := (*fn)()
		page.WriteOpenMetrics(w)
	}
	fmt.Fprintf(w, "# EOF\n")
}

// timeSeriesSource holds the current windowed-telemetry report source for
// the /debug/stm/timeseries endpoint, swappable like the other publishers.
var timeSeriesSource atomic.Pointer[func() *TimeSeriesReport]

// PublishTimeSeries sets the report source behind /debug/stm/timeseries.
// Later calls replace earlier ones (latest System wins). The source may
// return nil (engine off), which the endpoint serves as enabled=false.
func PublishTimeSeries(fn func() *TimeSeriesReport) {
	timeSeriesSource.Store(&fn)
}

// serveTimeSeries renders the current windowed-telemetry report as JSON.
func serveTimeSeries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var rep *TimeSeriesReport
	if fn := timeSeriesSource.Load(); fn != nil {
		rep = (*fn)()
	}
	if rep == nil {
		rep = &TimeSeriesReport{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(rep) //nolint:errcheck // client hangup is the only failure
}

// ServeMetrics binds addr and serves the standard observability endpoints:
//
//	/metrics                OpenMetrics/Prometheus text (conflict attribution,
//	                        abort taxonomy, windowed rates/SLO gauges; see
//	                        PublishOpenMetrics)
//	/debug/stm/timeseries   windowed-telemetry report as JSON (see
//	                        PublishTimeSeries)
//	/debug/vars             expvar (all Published funcs + Go runtime vars)
//	/debug/pprof/...        net/http/pprof (profiles carry the goroutine
//	                        labels core sets on client/server goroutines)
//
// It returns the bound address (useful with ":0") and a shutdown func. The
// server runs until the process exits or the shutdown func is called.
func ServeMetrics(addr string) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serveOpenMetrics)
	mux.HandleFunc("/debug/stm/timeseries", serveTimeSeries)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // shutdown path returns ErrServerClosed
	return ln.Addr().String(), func() error { return srv.Close() }, nil
}
