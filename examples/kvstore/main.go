// kvstore: a transactional key-value store with multi-key operations.
//
// Demonstrates composing stm.Var into a bucketed hash map that supports
// atomic cross-key transactions — the kind of operation a lock-per-bucket
// design cannot express without deadlock-prone lock ordering. Writers run
// atomic "rename" (move value between keys) and "increment-pair" operations;
// a checker thread verifies cross-key invariants transactionally.
//
//	go run ./examples/kvstore -algo rinval-v1
//	go run ./examples/kvstore -metrics :8080 -duration 10s   # cmd/stmtop's source
//	go run ./examples/kvstore -trace out.json                # open in ui.perfetto.dev
//
// -metrics serves expvar (/debug/vars), /metrics and pprof for the length of
// the run and turns on the telemetry cmd/stmtop draws: conflict attribution,
// the latency decomposition and the windowed time series.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/stm"
)

// Store is a fixed-bucket transactional map built purely on the public API.
type Store struct {
	buckets []*stm.Var[map[string]int] // immutable maps, copy-on-write
}

// NewStore returns a store with n buckets.
func NewStore(n int) *Store {
	s := &Store{buckets: make([]*stm.Var[map[string]int], n)}
	for i := range s.buckets {
		s.buckets[i] = stm.NewVar(map[string]int{})
	}
	return s
}

func (s *Store) bucket(key string) *stm.Var[map[string]int] {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return s.buckets[h%uint64(len(s.buckets))]
}

// Get returns the value for key.
func (s *Store) Get(tx *stm.Tx, key string) (int, bool) {
	v, ok := s.bucket(key).Load(tx)[key]
	return v, ok
}

// Set stores key=value (copy-on-write on the bucket).
func (s *Store) Set(tx *stm.Tx, key string, value int) {
	b := s.bucket(key)
	old := b.Load(tx)
	next := make(map[string]int, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = value
	b.Store(tx, next)
}

// Delete removes key.
func (s *Store) Delete(tx *stm.Tx, key string) {
	b := s.bucket(key)
	old := b.Load(tx)
	if _, ok := old[key]; !ok {
		return
	}
	next := make(map[string]int, len(old))
	for k, v := range old {
		if k != key {
			next[k] = v
		}
	}
	b.Store(tx, next)
}

// options are the command-line flags.
type options struct {
	algo     string
	duration time.Duration
	metrics  string    // serve the observability endpoints here during the run
	trace    string    // write the run's Chrome trace-event JSON here
	out      io.Writer // the report
}

func main() {
	o := options{out: os.Stdout}
	flag.StringVar(&o.algo, "algo", "rinval-v2", "STM engine")
	flag.DurationVar(&o.duration, "duration", 300*time.Millisecond, "how long the writers and the checker run")
	flag.StringVar(&o.metrics, "metrics", "", "serve expvar, /metrics and pprof on this address (e.g. :8080) during the run, with attribution, latency and time series on (cmd/stmtop's source)")
	flag.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON of the run to this path (open in ui.perfetto.dev)")
	flag.Parse()
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	algo, err := stm.ParseAlgo(o.algo)
	if err != nil {
		return err
	}
	cfg := stm.Config{Algo: algo, MaxThreads: 12, InvalServers: 2, Trace: o.trace != ""}
	if o.metrics != "" {
		cfg.Attribution = true
		cfg.Latency = true
		cfg.TimeSeries = stm.DefaultTimeSeriesWindows
	}
	sys, err := stm.New(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	if o.metrics != "" {
		publishMetrics(sys)
		addr, shutdown, err := obs.ServeMetrics(o.metrics)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(o.out, "metrics on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}

	store := NewStore(16)

	// Seed: each pair (a<i>, b<i>) sums to 100 — the invariant writers
	// preserve and the checker asserts.
	const pairs = 20
	seedTh := sys.MustRegister()
	for i := 0; i < pairs; i++ {
		i := i
		_ = seedTh.Atomically(func(tx *stm.Tx) error {
			store.Set(tx, fmt.Sprintf("a%d", i), 60)
			store.Set(tx, fmt.Sprintf("b%d", i), 40)
			return nil
		})
	}
	seedTh.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var moves, checks atomic.Int64
	var violation error // set by the checker only

	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.MustRegister()
			defer th.Close()
			rng := uint64(w*7 + 1)
			for !stop.Load() {
				rng = rng*6364136223846793005 + 1442695040888963407
				i := int(rng>>33) % pairs
				d := int(rng>>53)%21 - 10
				ka, kb := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
				_ = th.Atomically(func(tx *stm.Tx) error {
					a, _ := store.Get(tx, ka)
					b, _ := store.Get(tx, kb)
					store.Set(tx, ka, a+d)
					store.Set(tx, kb, b-d)
					return nil
				})
				moves.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := sys.MustRegister()
		defer th.Close()
		for !stop.Load() {
			for i := 0; i < pairs && !stop.Load(); i++ {
				ka, kb := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
				var sum int
				_ = th.Atomically(func(tx *stm.Tx) error {
					a, _ := store.Get(tx, ka)
					b, _ := store.Get(tx, kb)
					sum = a + b
					return nil
				})
				if sum != 100 {
					violation = fmt.Errorf("pair %d sums to %d (atomicity violated!)", i, sum)
					stop.Store(true)
					return
				}
				checks.Add(1)
			}
		}
	}()

	time.Sleep(o.duration)
	stop.Store(true)
	wg.Wait()
	if violation != nil {
		return violation
	}

	st := sys.Stats()
	fmt.Fprintf(o.out, "engine  %s\n", algo)
	fmt.Fprintf(o.out, "moves   %d cross-key transactions\n", moves.Load())
	fmt.Fprintf(o.out, "checks  %d invariant reads (all passed)\n", checks.Load())
	fmt.Fprintf(o.out, "commits %d, aborts %d\n", st.Commits, st.Aborts)
	if o.trace != "" {
		if err := writeTrace(sys, o.trace); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "wrote %s\n", o.trace)
	}
	return nil
}

// writeTrace closes sys, which quiesces its server goroutines so the export
// reads stable rings, and writes its lifecycle trace to path.
func writeTrace(sys *stm.System, path string) error {
	if err := sys.Close(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sys.Tracer().WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
