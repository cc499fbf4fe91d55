package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestLatencyRecorderNilSafe(t *testing.T) {
	var l *LatencyRecorder
	if l.Client(0) != nil || l.Server(0) != nil || l.SampleEvery() != 0 {
		t.Fatal("nil recorder not inert")
	}
	var c *LatCell
	if c.Sample() {
		t.Fatal("nil cell samples")
	}
	c.Record(LatApp, 10) // must not panic
	rep := l.Report()
	if rep.Enabled || len(rep.Client) != 0 {
		t.Fatalf("nil report %+v", rep)
	}
}

func TestLatencySampling(t *testing.T) {
	l := NewLatencyRecorder(1, 0, 4)
	c := l.Client(0)
	n := 0
	for i := 0; i < 100; i++ {
		if c.Sample() {
			n++
		}
	}
	if n != 25 {
		t.Fatalf("sampled %d of 100 at 1-in-4", n)
	}
	if every := NewLatencyRecorder(1, 1, 0).Client(0).every; every != 1 {
		t.Fatalf("sampleEvery floor broken: %d", every)
	}
}

func TestLatencyReportMerges(t *testing.T) {
	l := NewLatencyRecorder(3, 2, 1)
	for i := 0; i < 3; i++ {
		c := l.Client(i)
		c.Record(LatApp, int64(100*(i+1)))
		c.Record(LatRetry, 0)
		c.Record(LatCommitWait, 50)
		c.Record(LatTotal, int64(100*(i+1))+50)
	}
	l.Server(0).Record(LatCollect, 10)
	l.Server(1).Record(LatCollect, 30)
	l.Server(1).Record(LatReply, 5)
	rep := l.Report()
	if !rep.Enabled || rep.SampleEvery != 1 {
		t.Fatalf("header %+v", rep)
	}
	if rep.SampledCommits != 3 {
		t.Fatalf("sampled commits %d", rep.SampledCommits)
	}
	byName := map[string]LatencyPhase{}
	for _, p := range append(append([]LatencyPhase{}, rep.Client...), rep.Server...) {
		byName[p.Phase] = p
	}
	if byName["app"].Count != 3 || byName["app"].MaxNs != 300 {
		t.Fatalf("app phase %+v", byName["app"])
	}
	if byName["collect"].Count != 2 || byName["collect"].SumNs != 40 {
		t.Fatalf("collect phase %+v", byName["collect"])
	}
	if _, ok := byName["lock-wait"]; ok {
		t.Fatal("empty cross-shard phase should be elided")
	}
	// Negative durations clamp rather than corrupt the histogram.
	l.Client(0).Record(LatApp, -5)
	if h := l.ClientPhaseHistogram(LatApp); h.Count() != 4 || h.Min() != 0 {
		t.Fatalf("negative clamp: %s", h.String())
	}
}

// TestLatencyReportConcurrent hammers cells from their owners while Report
// runs — the race detector is the assertion.
func TestLatencyReportConcurrent(t *testing.T) {
	l := NewLatencyRecorder(4, 2, 2)
	var clients, reporter sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func(c *LatCell) {
			defer clients.Done()
			for j := 0; j < 50000; j++ {
				if c.Sample() {
					c.Record(LatApp, int64(j))
					c.Record(LatTotal, int64(j)+10)
				}
			}
		}(l.Client(i))
	}
	reporter.Add(1)
	go func() {
		defer reporter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep := l.Report()
			for _, p := range rep.Client {
				if p.Count > 0 && p.P99 < p.P50 {
					t.Errorf("phase %s: p99 %d < p50 %d", p.Phase, p.P99, p.P50)
					return
				}
			}
		}
	}()
	clients.Wait()
	close(stop)
	reporter.Wait()
	rep := l.Report()
	if rep.SampledCommits != 4*25000 {
		t.Fatalf("sampled commits %d", rep.SampledCommits)
	}
}

func TestWriteOpenMetricsHistogramCumulative(t *testing.T) {
	l := NewLatencyRecorder(1, 0, 1)
	c := l.Client(0)
	for _, v := range []int64{3, 5, 100, 2000} {
		c.Record(LatApp, v)
	}
	h := l.ClientPhaseHistogram(LatApp)
	var sb strings.Builder
	WriteOpenMetricsHistogram(&sb, "x_ns", `k="v"`, h.NonEmptyBuckets(), h.Count(), h.Sum())
	out := sb.String()
	for _, want := range []string{
		`x_ns_bucket{k="v",le="3"} 1`,
		`x_ns_bucket{k="v",le="7"} 2`,
		`x_ns_bucket{k="v",le="127"} 3`,
		`x_ns_bucket{k="v",le="2047"} 4`,
		`x_ns_bucket{k="v",le="+Inf"} 4`,
		`x_ns_count{k="v"} 4`,
		`x_ns_sum{k="v"} 2108`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsPageWritesAllSections(t *testing.T) {
	l := NewLatencyRecorder(1, 1, 1)
	l.Client(0).Record(LatTotal, 123)
	l.Server(0).Record(LatCollect, 9)
	var sh NamedHistogram
	sh.Name = "stm_server_queue_depth"
	sh.Labels = `shard="0"`
	srvHist := l.ClientPhaseHistogram(LatTotal)
	sh.Hist = srvHist
	page := MetricsPage{Latency: l.Report(), Server: []NamedHistogram{sh}}
	var sb strings.Builder
	page.WriteOpenMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"stm_latency_enabled 1",
		"stm_latency_sampled_commits_total 1",
		"# TYPE stm_latency_ns histogram",
		`stm_latency_ns_bucket{phase="total",side="client",le="+Inf"} 1`,
		`stm_latency_ns_bucket{phase="collect",side="server",le="+Inf"} 1`,
		"# TYPE stm_server_queue_depth histogram",
		`stm_server_queue_depth_count{shard="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFlightBundleWriteFile(t *testing.T) {
	tr := NewTracer(8)
	r := tr.AddActor("client-0")
	r.Instant(KBegin, 1)
	r.SpanAt(KTx, 10, 50, OutcomeCommit)
	l := NewLatencyRecorder(1, 0, 1)
	l.Client(0).Record(LatTotal, 40)
	b := &FlightBundle{
		Reason:    "test trigger",
		UnixNanos: 1234567890,
		Latency:   l.Report(),
		Conflict:  ConflictReport{Commits: 7},
		Trace:     SnapshotTracer(tr),
		Stacks:    AllStacks(),
	}
	dir := filepath.Join(t.TempDir(), "flight")
	path, err := b.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-1234567890.json" {
		t.Fatalf("path %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got FlightBundle
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("bundle not parseable: %v", err)
	}
	if got.Reason != "test trigger" || got.Conflict.Commits != 7 {
		t.Fatalf("round trip %+v", got)
	}
	if len(got.Trace) != 1 || got.Trace[0].Actor != "client-0" || len(got.Trace[0].Events) != 2 {
		t.Fatalf("trace section %+v", got.Trace)
	}
	if got.Latency.SampledCommits != 1 {
		t.Fatalf("latency section %+v", got.Latency)
	}
	if !strings.Contains(got.Stacks, "goroutine") {
		t.Fatal("stacks section empty")
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries", len(entries))
	}
}

// TestRingConcurrentSnapshot: a live writer plus snapshotters — the
// atomic-word storage must be race-free (run under -race) and snapshots
// must stay within capacity.
func TestRingConcurrentSnapshot(t *testing.T) {
	r := newRing(64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100000; i++ {
			r.InstantAt(KBegin, int64(i), uint64(i))
		}
		close(done)
	}()
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if s := r.Snapshot(); len(s) > 64 {
					t.Errorf("snapshot len %d", len(s))
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 || r.Dropped() != 100000-64 {
		t.Fatalf("final len %d dropped %d", r.Len(), r.Dropped())
	}
}
