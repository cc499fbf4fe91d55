// Flight recorder: the obs half of the post-mortem dump. core's time-series
// sampler runs one flight check per window; when a declared SLO's burn alert
// rises or the stall watchdog trips, it assembles a FlightBundle — trace-ring
// snapshots, the conflict report, the latency report, the windowed
// telemetry, goroutine stacks — and writes it atomically to a timestamped
// JSON file, so "why was it slow at 3am" has an artifact instead of a
// reproduction request.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// ActorTrace is one trace ring's snapshot in a flight bundle.
type ActorTrace struct {
	Actor   string  `json:"actor"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// FlightBundle is the post-mortem artifact: everything the observability
// layer knows at the moment an anomaly trips, in one parseable file.
type FlightBundle struct {
	Reason    string         `json:"reason"`
	UnixNanos int64          `json:"unix_nanos"`
	Latency   LatencyReport  `json:"latency"`
	Conflict  ConflictReport `json:"conflict"`
	// TimeSeries is the windowed-telemetry report at dump time (nil when
	// Config.TimeSeries is off). When the dump was triggered by an SLO
	// burn-rate alert, its Alerts tail carries the window that tripped it.
	TimeSeries *TimeSeriesReport `json:"timeseries,omitempty"`
	Trace      []ActorTrace      `json:"trace"`
	Stacks     string            `json:"stacks"`
}

// SnapshotTracer captures every ring of t into ActorTraces. Safe while
// writers run (rings are atomic-word storage). Nil tracer -> nil.
func SnapshotTracer(t *Tracer) []ActorTrace {
	if t == nil {
		return nil
	}
	out := make([]ActorTrace, 0, t.Actors())
	for i := 0; i < t.Actors(); i++ {
		r := t.Ring(i)
		out = append(out, ActorTrace{Actor: t.ActorName(i), Dropped: r.Dropped(), Events: r.Snapshot()})
	}
	return out
}

// AllStacks returns every goroutine's stack, the way an aborting runtime
// would print them. Grows the buffer until runtime.Stack fits.
func AllStacks() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, len(buf)*2)
	}
}

// WriteFile writes the bundle to dir as flight-<unixnanos>.json, atomically
// (temp file + rename), creating dir if needed. Returns the final path.
func (b *FlightBundle) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: flight dir: %w", err)
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return "", fmt.Errorf("obs: flight marshal: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("flight-%d.json", b.UnixNanos))
	tmp, err := os.CreateTemp(dir, ".flight-*.tmp")
	if err != nil {
		return "", fmt.Errorf("obs: flight temp: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("obs: flight write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("obs: flight close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("obs: flight rename: %w", err)
	}
	return final, nil
}
