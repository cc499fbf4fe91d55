package core

import (
	"fmt"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// LatencyReport returns the merged critical-path latency decomposition
// (Config.Latency). Safe to call while transactions run: the cells are
// snapshotted atomically. With Latency off, Enabled is false.
func (s *System) LatencyReport() obs.LatencyReport {
	return s.lat.Report()
}

// ServerPhaseHistograms exposes the commit streams' per-epoch histograms
// (queue depth, step-ahead occupancy, batch size) as named OpenMetrics
// histogram families, one child per shard. Safe to call while transactions
// run. The epochs' phase durations are the latency report's server side
// (stm_latency_ns{side="server"}).
func (s *System) ServerPhaseHistograms() []obs.NamedHistogram {
	shardStats := s.ShardServerStats()
	if shardStats == nil {
		// Non-RInval engines have no commit-server; one unlabeled, empty
		// child set keeps the families present.
		return serverChildren("", Stats{})
	}
	var out []obs.NamedHistogram
	for j, st := range shardStats {
		out = append(out, serverChildren(fmt.Sprintf("shard=\"%d\"", j), st)...)
	}
	return out
}

// serverChildren renders one Stats' server histograms as histogram children.
func serverChildren(labels string, st Stats) []obs.NamedHistogram {
	return []obs.NamedHistogram{
		{Name: "stm_server_queue_depth", Labels: labels, Hist: st.Server.QueueDepth},
		{Name: "stm_server_step_ahead", Labels: labels, Hist: st.Server.StepAhead},
		{Name: "stm_batch_size", Labels: labels, Hist: st.BatchSizes},
	}
}
