package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/container/rbtree"
	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/stamp"
	"github.com/ssrg-vt/rinval/stm"
)

// RBTreeOpts parameterizes the live red-black tree micro-benchmark (the
// paper's Figures 2 and 7: 64K elements, 50%/80% reads, a short delay
// between operations).
type RBTreeOpts struct {
	Keys     int           // key range; tree is pre-filled to half occupancy
	ReadPct  int           // percentage of lookups; the rest split insert/delete
	Duration time.Duration // measurement window
	Seed     uint64
	// Stats enables phase timing (needed for breakdown figures; adds
	// per-operation clock reads).
	Stats bool
	// InvalServers/StepsAhead/BloomBits forward to the engine
	// configuration (zero = engine default).
	InvalServers int
	StepsAhead   int
	BloomBits    int
}

// DefaultRBTreeOpts mirrors the paper's micro-benchmark, scaled to run in a
// test-friendly window.
func DefaultRBTreeOpts() RBTreeOpts {
	return RBTreeOpts{
		Keys:     64 * 1024,
		ReadPct:  50,
		Duration: 250 * time.Millisecond,
		Seed:     1,
	}
}

// RunRBTree executes the micro-benchmark on a fresh System and returns the
// measured row.
func RunRBTree(algo stm.Algo, threads int, o RBTreeOpts) (Row, error) {
	if o.Keys < 2 || threads < 1 {
		return Row{}, fmt.Errorf("bench: bad rbtree options")
	}
	cfg := stm.Config{
		Algo:       algo,
		MaxThreads: threads + 1,
		Stats:      o.Stats,
		Seed:       o.Seed,
		Trace:      tracePath != "",
	}
	if serving {
		cfg.Attribution = true
		cfg.Latency = true
		cfg.TimeSeries = stm.DefaultTimeSeriesWindows
	}
	if o.InvalServers > 0 {
		cfg.InvalServers = o.InvalServers
	} else {
		cfg.InvalServers = min(4, threads+1)
	}
	if o.StepsAhead > 0 {
		cfg.StepsAhead = o.StepsAhead
	}
	if o.BloomBits > 0 {
		cfg.Bloom = bloom.Params{Bits: o.BloomBits, Hashes: 2}
	}
	sys, err := stm.New(cfg)
	if err != nil {
		return Row{}, err
	}
	defer sys.Close()
	liveSys.Store(sys)

	tree := rbtree.New()
	setup := sys.MustRegister()
	fill := stamp.NewRand(o.Seed, 42)
	for i := 0; i < o.Keys/2; i++ {
		k := fill.Intn(o.Keys)
		if err := setup.Atomically(func(tx *stm.Tx) error {
			tree.Insert(tx, k, k)
			return nil
		}); err != nil {
			setup.Close()
			return Row{}, err
		}
	}
	setup.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, threads)
	start := time.Now()
	for w := 0; w < threads; w++ {
		w := w
		wg.Add(1)
		go clientLabeled(w, func() {
			defer wg.Done()
			th, err := sys.Register()
			if err != nil {
				errs[w] = err
				return
			}
			defer th.Close()
			rng := stamp.NewRand(o.Seed, uint64(w)+1000)
			for !stop.Load() {
				k := rng.Intn(o.Keys)
				op := rng.Intn(100)
				errs[w] = th.Atomically(func(tx *stm.Tx) error {
					switch {
					case op < o.ReadPct:
						tree.Contains(tx, k)
					case op < o.ReadPct+(100-o.ReadPct)/2:
						tree.Insert(tx, k, k)
					default:
						tree.Delete(tx, k)
					}
					return nil
				})
				if errs[w] != nil {
					return
				}
				// The paper inserts a short no-op delay between operations;
				// the loop bookkeeping supplies an equivalent gap.
			}
		})
	}
	// Sleep-based stop keeps the measurement window independent of
	// throughput.
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for _, e := range errs {
		if e != nil {
			return Row{}, e
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		return Row{}, fmt.Errorf("bench: tree corrupted: %w", err)
	}
	if err := finishTrace(sys); err != nil {
		return Row{}, err
	}

	st := sys.Stats()
	row := Row{
		Algo:      algo.String(),
		Threads:   threads,
		Elapsed:   elapsed,
		Commits:   st.Commits,
		Aborts:    st.Aborts,
		KTxPerSec: float64(st.Commits) / elapsed.Seconds() / 1e3,
	}
	if o.Stats {
		row.ReadFrac, row.CommitFrac, row.AbortFrac, row.OtherFrac = breakdown(st, elapsed, threads)
	}
	return row, nil
}

// breakdown converts accumulated phase nanoseconds into fractions of the
// total busy time (threads x wall time), attributing the remainder to the
// paper's "other" block.
func breakdown(st stm.Stats, elapsed time.Duration, threads int) (read, commit, abort, other float64) {
	total := float64(elapsed.Nanoseconds()) * float64(threads)
	if total <= 0 {
		return 0, 0, 0, 0
	}
	read = float64(st.ReadNs) / total
	commit = float64(st.CommitNs) / total
	abort = float64(st.AbortNs) / total
	other = 1 - read - commit - abort
	if other < 0 {
		other = 0
	}
	return read, commit, abort, other
}
