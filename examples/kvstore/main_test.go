package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// addrWriter hands run's "metrics on http://ADDR/..." line to the test.
type addrWriter struct{ addr chan string }

func (w addrWriter) Write(p []byte) (int, error) {
	if _, rest, ok := strings.Cut(string(p), "metrics on http://"); ok {
		addr, _, _ := strings.Cut(rest, "/")
		w.addr <- addr
	}
	return len(p), nil
}

// TestServeMetricsArmsLiveTelemetry: with -metrics, the run publishes enabled
// conflict, latency and time-series reports — the three vars cmd/stmtop draws
// its panels from — while it runs.
func TestServeMetricsArmsLiveTelemetry(t *testing.T) {
	w := addrWriter{addr: make(chan string, 1)}
	done := make(chan error, 1)
	go func() {
		done <- run(options{algo: "rinval-v2", duration: 300 * time.Millisecond, metrics: "127.0.0.1:0", out: w})
	}()
	var addr string
	select {
	case addr = <-w.addr:
	case err := <-done:
		t.Fatalf("run ended before serving metrics: %v", err)
	}
	allEnabled := func() bool {
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var page map[string]json.RawMessage
		if json.NewDecoder(resp.Body).Decode(&page) != nil {
			return false
		}
		for _, name := range []string{"stm_conflict", "stm_latency", "stm_timeseries"} {
			var rep struct{ Enabled bool }
			if json.Unmarshal(page[name], &rep) != nil || !rep.Enabled {
				return false
			}
		}
		return true
	}
	seen := false
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			seen = seen || allEnabled()
		}
	}
	if !seen {
		t.Fatal("no scrape of /debug/vars found stm_conflict, stm_latency and stm_timeseries all enabled")
	}
}

// TestTraceWritesChromeJSON: -trace leaves a Chrome trace-event file with
// events in it.
func TestTraceWritesChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run(options{algo: "rinval-v1", duration: 50 * time.Millisecond, trace: path, out: io.Discard}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "" || e.Name == "" {
			t.Fatalf("malformed trace event %+v", e)
		}
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("trace has no spans among its %d events", len(doc.TraceEvents))
	}
}
