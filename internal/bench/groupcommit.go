package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"github.com/ssrg-vt/rinval/internal/histo"
	"github.com/ssrg-vt/rinval/stm"
)

// GroupCommitOpts parameterizes the group-commit contention sweep: a
// disjoint blind-write workload (each client updates only its own Vars, so
// every pending request is batch-compatible) run over a grid of client
// counts and MaxBatch settings. The interesting output is epochs per
// committed transaction: with MaxBatch=1 it is exactly 1 (the paper's
// protocol), with batching enabled it drops toward 1/MaxBatch as the
// commit-server absorbs whole queues of compatible requests into single
// timestamp transitions.
type GroupCommitOpts struct {
	Clients []int // client-thread counts to sweep
	Batches []int // MaxBatch settings to sweep
	Iters   int   // committed write transactions per client
	VarsPer int   // private Vars per client (default 4)
}

// GroupCommitPoint is one (algo, clients, MaxBatch) measurement.
type GroupCommitPoint struct {
	Algo            string         `json:"algo"`
	Clients         int            `json:"clients"`
	MaxBatch        int            `json:"max_batch"`
	DurationNs      int64          `json:"duration_ns"`
	Commits         uint64         `json:"commits"`
	Epochs          uint64         `json:"epochs"`
	EpochsPerCommit float64        `json:"epochs_per_commit"`
	KTxPerSec       float64        `json:"ktx_per_sec"`
	MeanBatch       float64        `json:"mean_batch"`
	MaxBatchSeen    uint64         `json:"max_batch_seen"`
	BatchHistogram  []histo.Bucket `json:"batch_histogram,omitempty"`
	// Server holds the commit-server's per-epoch distributions: queue depth
	// at batch collection (and V3's step-ahead occupancy), then the latency
	// report's server phases in nanoseconds.
	Server []PhaseHistogram `json:"server_phases,omitempty"`
}

// PhaseHistogram is one commit-server phase distribution in the JSON report.
type PhaseHistogram struct {
	Phase   string         `json:"phase"`
	Count   uint64         `json:"count"`
	Mean    float64        `json:"mean"`
	Max     uint64         `json:"max"`
	Buckets []histo.Bucket `json:"buckets,omitempty"`
}

// phaseHistograms flattens a closed System's server-side distributions: the
// non-empty Stats.Server occupancy histograms, then every server phase of the
// latency report (which elides the phases the configuration never records) as
// "<phase>_ns".
func phaseHistograms(sys *stm.System) []PhaseHistogram {
	st := sys.Stats()
	var out []PhaseHistogram
	for _, n := range []struct {
		name string
		h    *histo.Histogram
	}{
		{"queue_depth", &st.Server.QueueDepth},
		{"step_ahead", &st.Server.StepAhead},
	} {
		if n.h.Count() == 0 {
			continue
		}
		out = append(out, PhaseHistogram{
			Phase:   n.name,
			Count:   n.h.Count(),
			Mean:    n.h.Mean(),
			Max:     n.h.Max(),
			Buckets: n.h.NonEmptyBuckets(),
		})
	}
	for _, p := range sys.LatencyReport().Server {
		out = append(out, PhaseHistogram{
			Phase:   strings.ReplaceAll(p.Phase, "-", "_") + "_ns",
			Count:   p.Count,
			Mean:    p.MeanNs,
			Max:     p.MaxNs,
			Buckets: p.Bucket,
		})
	}
	return out
}

// GroupCommitReport is the full sweep, serialized to BENCH_group_commit.json.
type GroupCommitReport struct {
	Workload string             `json:"workload"`
	Iters    int                `json:"iters_per_client"`
	Points   []GroupCommitPoint `json:"points"`
}

// RunGroupCommit executes the sweep on the live engines. Commits are counted
// by the harness (clients × iters, every transaction commits — the workload
// is conflict-free by construction), epochs come from the commit-server's
// counters after Close.
func RunGroupCommit(algos []stm.Algo, o GroupCommitOpts) (*GroupCommitReport, error) {
	if o.Iters < 1 {
		return nil, fmt.Errorf("bench: group-commit iters must be >= 1")
	}
	if o.VarsPer == 0 {
		o.VarsPer = 4
	}
	rep := &GroupCommitReport{
		Workload: fmt.Sprintf("disjoint blind writes, %d private vars per client", o.VarsPer),
		Iters:    o.Iters,
	}
	for _, algo := range algos {
		for _, clients := range o.Clients {
			for _, mb := range o.Batches {
				p, err := runGroupCommitPoint(algo, clients, mb, o)
				if err != nil {
					return nil, err
				}
				rep.Points = append(rep.Points, p)
			}
		}
	}
	return rep, nil
}

func runGroupCommitPoint(algo stm.Algo, clients, maxBatch int, o GroupCommitOpts) (GroupCommitPoint, error) {
	sys, err := stm.New(stm.Config{
		Algo:         algo,
		MaxThreads:   clients,
		InvalServers: min(4, clients),
		MaxBatch:     maxBatch,
		// The sweep's JSON reports the commit-server's per-epoch
		// collect/inval-wait/write-back/reply distributions.
		Latency: true,
	})
	if err != nil {
		return GroupCommitPoint{}, err
	}

	// Pre-register so measurement covers only transactional work.
	ths := make([]*stm.Thread, clients)
	for i := range ths {
		ths[i], err = sys.Register()
		if err != nil {
			sys.Close()
			return GroupCommitPoint{}, err
		}
	}
	vars := make([][]*stm.Var[int], clients)
	for i := range vars {
		vars[i] = make([]*stm.Var[int], o.VarsPer)
		for j := range vars[i] {
			vars[i][j] = stm.NewVar(0)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := vars[w]
			for i := 0; i < o.Iters; i++ {
				errs[w] = ths[w].Atomically(func(tx *stm.Tx) error {
					mine[i%len(mine)].Store(tx, i)
					return nil
				})
				if errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, th := range ths {
		th.Close()
	}
	if err := sys.Close(); err != nil {
		return GroupCommitPoint{}, err
	}
	for _, e := range errs {
		if e != nil {
			return GroupCommitPoint{}, e
		}
	}

	commits := uint64(clients) * uint64(o.Iters)
	st := sys.Stats() // post-Close: includes the commit-server's counters
	p := GroupCommitPoint{
		Algo:           algo.String(),
		Clients:        clients,
		MaxBatch:       maxBatch,
		DurationNs:     elapsed.Nanoseconds(),
		Commits:        commits,
		Epochs:         st.Epochs,
		KTxPerSec:      float64(commits) / elapsed.Seconds() / 1e3,
		MeanBatch:      st.BatchSizes.Mean(),
		MaxBatchSeen:   st.BatchSizes.Max(),
		BatchHistogram: st.BatchSizes.NonEmptyBuckets(),
		Server:         phaseHistograms(sys),
	}
	if commits > 0 {
		p.EpochsPerCommit = float64(st.Epochs) / float64(commits)
	}
	return p, nil
}

// WriteJSON serializes the report with stable indentation.
func (r *GroupCommitReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Format writes a human-readable table of the sweep.
func (r *GroupCommitReport) Format(w io.Writer) {
	fmt.Fprintf(w, "== Group commit: %s (%d tx/client) ==\n", r.Workload, r.Iters)
	fmt.Fprintf(w, "%-12s %8s %9s %12s %10s %10s %14s %10s\n",
		"algo", "clients", "maxbatch", "ktx/s", "commits", "epochs", "epochs/commit", "meanbatch")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-12s %8d %9d %12.1f %10d %10d %14.3f %10.2f\n",
			p.Algo, p.Clients, p.MaxBatch, p.KTxPerSec, p.Commits, p.Epochs,
			p.EpochsPerCommit, p.MeanBatch)
	}
	fmt.Fprintln(w)
}
