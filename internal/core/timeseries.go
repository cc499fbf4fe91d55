// Windowed-telemetry sampling: the core half of Config.TimeSeries
// (DESIGN.md §15). A single sampler goroutine assembles one cumulative
// obs.TSSample per interval — from System.Stats' atomic counter snapshots
// (the commit streams' epoch counters included), attribution totals, and the
// latency recorder's client-phase histograms — and pushes it into the obs
// engine, which delta-encodes and evaluates SLO burn rates; what the push
// returns feeds the flight check (flight.go) on the same goroutine. The
// sampler is the only goroutine that may read the clock here; nothing
// reachable from a //stm:hotpath root touches this file or flight.go
// (enforced by stmlint's tsclean/tsnow fixtures).
package core

import (
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// DefaultTimeSeriesWindows is the ring capacity Config.TimeSeries defaults
// to when SLOs are declared, or FlightRecorder is set, without an explicit
// window count: 600 windows is 10 minutes of history at the default 1 s
// interval.
const DefaultTimeSeriesWindows = 600

// collectTSSample assembles one cumulative observation as of nowNanos.
// Alloc-free: Stats() copies values (its server counters are individual
// atomic loads or histogram snapshots), and the phase histograms merge into
// the sample in place.
func (s *System) collectTSSample(nowNanos int64) obs.TSSample {
	var smp obs.TSSample
	smp.UnixNanos = nowNanos
	st := s.Stats()
	c := &smp.Counters
	c[obs.TSCommits] = st.Commits
	c[obs.TSAborts] = st.Aborts
	c[obs.TSAbortInvalidated] = st.AbortReasons[AbortInvalidated]
	c[obs.TSAbortValidation] = st.AbortReasons[AbortValidation]
	c[obs.TSAbortLocked] = st.AbortReasons[AbortLocked]
	c[obs.TSAbortExplicit] = st.AbortReasons[AbortExplicit]
	c[obs.TSReadOnly] = st.ReadOnly
	c[obs.TSROCommits] = st.ROCommits
	c[obs.TSROFallbacks] = st.ROFallbacks
	c[obs.TSReads] = st.Reads
	c[obs.TSWrites] = st.Writes
	c[obs.TSEpochs] = st.Epochs
	c[obs.TSCrossShard] = st.CrossShardCommits
	fpSampled, fpFalse, wastedNs := s.attr.Totals()
	c[obs.TSBloomFPSampled] = fpSampled
	c[obs.TSBloomFPFalse] = fpFalse
	c[obs.TSWastedNs] = wastedNs
	for i, p := range obs.TSPhases {
		smp.Phases[i] = s.lat.ClientPhaseHistogram(p)
	}
	return smp
}

// tsTick takes one sample and pushes it. Split from tsLoop so tests can
// drive windows deterministically with fabricated timestamps.
func (s *System) tsTick(nowNanos int64) {
	s.tsPush(s.collectTSSample(nowNanos))
}

// tsPush feeds one sample to the sampler's three consumers: the ring and the
// SLO monitor inside the engine and, with Config.FlightRecorder, the flight
// check, which reads the window's epoch delta and the alerts that rose on it.
// Split from tsTick so tests can fabricate the sample too.
func (s *System) tsPush(smp obs.TSSample) {
	delta, rose := s.tseries.Push(smp)
	if s.flight != nil {
		s.flightCheck(smp.UnixNanos, delta[obs.TSEpochs], rose)
	}
}

// tsLoop is the sampler goroutine: one sample per interval, and a final
// sample on stop so short-lived systems still retain their last window.
// startServers takes the baseline sample (the first push only establishes
// the delta base) before it starts this goroutine, so the first window
// counts everything after New returned. Stopped by Close via tsStop.
func (s *System) tsLoop() {
	ticker := time.NewTicker(s.cfg.TimeSeriesInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.tsStop:
			s.tsTick(time.Now().UnixNano())
			return
		case <-ticker.C:
			s.tsTick(time.Now().UnixNano())
		}
	}
}

// TimeSeriesReport returns the windowed-telemetry view: rates and moving
// quantiles over the standard spans, recent windows, and SLO/alert state.
// Safe to call while transactions run; Enabled=false when Config.TimeSeries
// is off.
func (s *System) TimeSeriesReport() obs.TimeSeriesReport {
	return s.tseries.Report()
}
