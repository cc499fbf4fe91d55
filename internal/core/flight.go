package core

import (
	"fmt"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// DumpFlightBundle assembles the full post-mortem bundle — latency report,
// conflict report, windowed telemetry, trace-ring snapshots, goroutine
// stacks — and writes it atomically to Config.FlightDir, returning the file
// path. Safe to call while transactions run (every section reads through
// concurrent-safe snapshots); callable directly for operator-initiated
// dumps, and what the flight check invokes when a trigger trips.
func (s *System) DumpFlightBundle(reason string) (string, error) {
	b := &obs.FlightBundle{
		Reason:    reason,
		UnixNanos: time.Now().UnixNano(),
		Latency:   s.LatencyReport(),
		Conflict:  s.ConflictReport(),
		Trace:     obs.SnapshotTracer(s.tracer),
		Stacks:    obs.AllStacks(),
	}
	if rep := s.tseries.Report(); rep.Enabled {
		b.TimeSeries = &rep
	}
	return b.WriteFile(s.cfg.FlightDir)
}

// flightCooldownNs suppresses further dumps for this long after one is
// written, so a sustained incident produces one bundle, not one per window.
// Measured on the sampler's tick timestamps.
const flightCooldownNs = int64(10 * time.Second)

// flightState is the flight check's between-tick memory (Config.FlightRecorder),
// owned by whoever runs the sampler's tick.
type flightState struct {
	// pending[i]: slot i was waiting on a commit reply at the last tick.
	pending []bool
	// lagging[j*n+k] is 1+invalTS[k] of stream j as of the last tick if
	// partition k trailed the stream's timestamp then, else 0 (invalTS is
	// even, so the two cannot collide).
	lagging []uint64
	// lastDump is the tick timestamp of the last written bundle, 0 if none.
	lastDump int64
}

// flightCheck is the sampler's third consumer, after the ring and the SLO
// monitor: one pass of the triggers over the window just pushed, and a bundle
// on disk when one trips outside the cooldown. Triggers, least severe first,
// each overwriting the last: a burn alert that rose on the window; a partition
// of a V2/V3 stream that trailed the stream's timestamp on two consecutive
// ticks without moving (its readers spin in invalRead, and they are not
// reqPending); a client waiting on its commit reply across two consecutive
// ticks while the window saw no epoch. Atomic loads only.
func (s *System) flightCheck(nowNanos int64, epochs uint64, rose []obs.SLOAlert) {
	fs, reason := s.flight, ""
	if len(rose) > 0 {
		a := &rose[0]
		reason = fmt.Sprintf("slo burn: %s fast=%.2fx slow=%.2fx (threshold %.2fx)",
			a.SLO, a.FastBurn, a.SlowBurn, a.Burn)
	}
	// Partitions per stream: none for V1, below four Ps or inline engines.
	n := s.nInvalPerShard
	for j := range s.streams {
		st := &s.streams[j]
		for k := 0; k < n; k++ {
			seen := &fs.lagging[j*n+k]
			its := st.invalTS[k].Load()
			switch ts := st.ts.Load(); {
			case its >= ts:
				*seen = 0
			case *seen != its+1:
				*seen = its + 1
			default:
				reason = fmt.Sprintf("partition stall: stream %d partition %d is %d commits behind and did not move across two ticks (lock held: %t)",
					j, k, (ts-its+1)/2, st.partOwner[k].Load() != 0)
			}
		}
	}
	for i := range s.slots {
		pending := s.slots[i].state.Load()&reqCodeMask == reqPending
		if pending && fs.pending[i] && epochs == 0 {
			reason = fmt.Sprintf("commit-server stall: slot %d pending across two ticks with no epoch progress", i)
		}
		fs.pending[i] = pending
	}
	if reason == "" || (fs.lastDump != 0 && nowNanos-fs.lastDump < flightCooldownNs) {
		return
	}
	if _, err := s.DumpFlightBundle(reason); err == nil {
		fs.lastDump = nowNanos
	}
}
