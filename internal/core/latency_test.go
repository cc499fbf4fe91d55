package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// TestLatencyReconciliation churns every engine with sampling on and checks
// the decomposition's books balance: every client phase histogram holds
// exactly one sample per sampled commit, and the phase sums never exceed the
// end-to-end sum (the attempt intervals are disjoint within [start, end]).
// Run under -race this also exercises concurrent Report against live owners.
func TestLatencyReconciliation(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		const (
			threads = 4
			perThr  = 400
			every   = 4
		)
		s := newServerSys(t, algo, func(c *Config) {
			c.Latency = true
			c.LatencySampleEvery = every
			c.MaxThreads = 8
		})
		vars := make([]*Var, 4)
		for i := range vars {
			vars[i] = NewVar(0)
		}
		var wg sync.WaitGroup
		stopRep := make(chan struct{})
		wg.Add(1)
		go func() { // concurrent reader while owners record
			defer wg.Done()
			for {
				select {
				case <-stopRep:
					return
				case <-time.After(time.Millisecond):
					_ = s.LatencyReport()
				}
			}
		}()
		var workers sync.WaitGroup
		for g := 0; g < threads; g++ {
			workers.Add(1)
			go func(g int) {
				defer workers.Done()
				th := s.MustRegister()
				defer th.Close()
				for i := 0; i < perThr; i++ {
					v := vars[(g+i)%len(vars)]
					_ = th.Atomically(func(tx *Tx) error {
						tx.Store(v, tx.Load(v).(int)+1)
						return nil
					})
				}
			}(g)
		}
		workers.Wait()
		close(stopRep)
		wg.Wait()

		rep := s.LatencyReport()
		if !rep.Enabled || rep.SampleEvery != every {
			t.Fatalf("report not enabled as configured: %+v", rep)
		}
		want := uint64(threads * perThr / every)
		if rep.SampledCommits != want {
			t.Fatalf("SampledCommits = %d, want %d", rep.SampledCommits, want)
		}
		var sum, total uint64
		for _, p := range rep.Client {
			if p.Count != want {
				t.Errorf("client phase %s count = %d, want %d", p.Phase, p.Count, want)
			}
			if p.Phase == "total" {
				total = p.SumNs
			} else {
				sum += p.SumNs
			}
		}
		if total == 0 || sum > total {
			t.Errorf("phase sums do not reconcile: app+retry+commit-wait = %d, total = %d", sum, total)
		}
		// RInval engines must also have per-epoch server phases; phases the
		// variant never records (e.g. V1's lag wait) are elided, so every
		// listed phase must carry samples.
		switch algo {
		case RInvalV1, RInvalV2, RInvalV3:
			names := map[string]bool{}
			for _, p := range rep.Server {
				names[p.Phase] = true
				if p.Count == 0 {
					t.Errorf("server phase %s listed but empty", p.Phase)
				}
			}
			for _, want := range []string{"collect", "write-back", "reply"} {
				if !names[want] {
					t.Errorf("server phase %s missing for %s", want, algo)
				}
			}
		}
	})
}

// TestLatencyDisabled checks the zero-cost path reports itself off.
func TestLatencyDisabled(t *testing.T) {
	s := newSys(t, NOrec, nil)
	th := s.MustRegister()
	defer th.Close()
	v := NewVar(0)
	for i := 0; i < 100; i++ {
		_ = th.Atomically(func(tx *Tx) error { tx.Store(v, i); return nil })
	}
	rep := s.LatencyReport()
	if rep.Enabled || rep.SampledCommits != 0 || len(rep.Client) != 0 {
		t.Fatalf("disabled system produced a live report: %+v", rep)
	}
}

// TestLatencyUserAbortsUnrecorded checks a sampled transaction that ends in a
// user abort leaves no phase samples, keeping counts == sampled commits.
func TestLatencyUserAbortsUnrecorded(t *testing.T) {
	s := newSys(t, NOrec, func(c *Config) {
		c.Latency = true
		c.LatencySampleEvery = 1
	})
	th := s.MustRegister()
	defer th.Close()
	v := NewVar(0)
	errBoom := errTest
	commits := 0
	for i := 0; i < 100; i++ {
		err := th.Atomically(func(tx *Tx) error {
			tx.Store(v, i)
			if i%3 == 0 {
				return errBoom
			}
			return nil
		})
		if err == nil {
			commits++
		}
	}
	rep := s.LatencyReport()
	if rep.SampledCommits != uint64(commits) {
		t.Fatalf("SampledCommits = %d, want %d (user aborts must not record)", rep.SampledCommits, commits)
	}
	for _, p := range rep.Client {
		if p.Count != uint64(commits) {
			t.Errorf("phase %s count = %d, want %d", p.Phase, p.Count, commits)
		}
	}
}

var errTest = os.ErrInvalid

// flightBundles parses the bundles written under dir, oldest first (the file
// name is the dump's wall-clock nanosecond).
func flightBundles(t *testing.T, dir string) []obs.FlightBundle {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	sort.Strings(paths)
	out := make([]obs.FlightBundle, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &out[i]); err != nil {
			t.Fatalf("%s does not parse: %v", p, err)
		}
	}
	return out
}

// flightTicker drives s's sampler tick by hand on fabricated timestamps a
// cooldown and a bit apart, so every tripped tick writes its bundle.
func flightTicker(s *System) func() {
	now := int64(0)
	return func() {
		now += flightCooldownNs + 1
		s.tsTick(now)
	}
}

// TestFlightTickStallDetection drives the sampler's tick directly: a slot left
// PENDING across two ticks whose window saw no epoch must be dumped as a
// commit-server stall, and a window with epoch progress must not.
func TestFlightTickStallDetection(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Algo: RInvalV2, MaxThreads: 8, InvalServers: 2, FlightRecorder: true, FlightDir: dir}
	s, err := newSystem(cfg) // servers deliberately not started: epochs frozen
	if err != nil {
		t.Fatal(err)
	}
	tick := flightTicker(s)
	s.slots[3].state.Store(reqPending)
	tick()
	if b := flightBundles(t, dir); len(b) != 0 {
		t.Fatalf("first tick tripped early: %q", b[0].Reason)
	}
	tick()
	b := flightBundles(t, dir)
	if len(b) != 1 || !strings.Contains(b[0].Reason, "stall") || !strings.Contains(b[0].Reason, "slot 3") {
		t.Fatalf("second tick: %d bundles, want one commit-server stall on slot 3: %+v", len(b), b)
	}
	// Epoch progress clears it: the window the next tick pushes shows an
	// epoch (one batch-size sample), so the still-pending slot no longer
	// counts as stalled.
	s.rinval.srv[0].batchSizes.Record(1)
	tick()
	if b := flightBundles(t, dir); len(b) != 1 {
		t.Fatalf("tick with epoch progress tripped: %q", b[1].Reason)
	}
	tick()
	if b := flightBundles(t, dir); len(b) != 2 {
		t.Fatalf("stall resumed, %d bundles, want 2", len(b))
	}
}

// TestFlightPartitionStall: a V2/V3 partition whose scanner is wedged (the
// test holds its lock, as a descheduled server would) trails the stream's
// timestamp; clients reading there spin in invalRead without ever being
// PENDING. The watchdog reports it on the second tick it has not moved, and a
// moved invalTS clears it. Engines without partitions never report one.
func TestFlightPartitionStall(t *testing.T) {
	commit := func(th *Thread, v *Var) {
		t.Helper()
		if err := th.Atomically(func(tx *Tx) error { tx.Store(v, 1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	s := atFourPs(t, newSystem, Config{Algo: RInvalV3, MaxThreads: 4, InvalServers: 2, StepsAhead: 2,
		FlightRecorder: true, FlightDir: dir})
	const held = 1
	th, st := s.MustRegister(), &s.streams[0]
	if th.slot.invalServer == held || !s.tryLockPartition(0, held) {
		t.Fatal("writer must live in the free partition, and the other lock be free")
	}
	tick := flightTicker(s)
	v := NewVar(0)
	commit(th, v)
	commit(th, v) // V3 runs two commits past the held partition
	tick()
	if b := flightBundles(t, dir); len(b) != 0 {
		t.Fatalf("first tick tripped early: %q", b[0].Reason)
	}
	tick()
	b := flightBundles(t, dir)
	if len(b) != 1 || !strings.Contains(b[0].Reason, "partition stall: stream 0 partition 1 is 2 commits behind") ||
		!strings.Contains(b[0].Reason, "lock held: true") {
		t.Fatalf("second tick: want one partition-stall bundle, got %+v", b)
	}
	// The holder makes progress but stays behind: moved, so not stalled —
	// until it sits still for two ticks again.
	st.invalTS[held].Store(2)
	tick()
	if b := flightBundles(t, dir); len(b) != 1 {
		t.Fatalf("moved partition reported: %q", b[1].Reason)
	}
	tick()
	if b := flightBundles(t, dir); len(b) != 2 || !strings.Contains(b[1].Reason, "1 commits behind") {
		t.Fatalf("partition that stopped again: %+v", b)
	}
	st.invalTS[held].Store(st.ts.Load())
	s.unlockPartition(0, held)
	tick()
	tick()
	if b := flightBundles(t, dir); len(b) != 2 {
		t.Fatalf("caught-up partition reported: %q", b[2].Reason)
	}
	th.Close()

	for _, algo := range []Algo{NOrec, InvalSTM, RInvalV1} {
		dir := t.TempDir()
		s, err := newSystem(Config{Algo: algo, MaxThreads: 4, FlightRecorder: true, FlightDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		th, tick := s.MustRegister(), flightTicker(s)
		commit(th, NewVar(0)) // the timestamp moves; invalTS is not in use
		for i := 0; i < 3; i++ {
			tick()
		}
		if b := flightBundles(t, dir); len(b) != 0 {
			t.Fatalf("%v has no partitions, yet: %q", algo, b[0].Reason)
		}
		th.Close()
	}
}

// TestFlightRecorderDumpsOnAbortSpike is the end-to-end path on a running
// System: real write-write contention burns a declared abort-rate SLO, the
// sampler's flight check dumps, and the bundle on disk parses back with every
// section populated.
func TestFlightRecorderDumpsOnAbortSpike(t *testing.T) {
	dir := t.TempDir()
	s := newSys(t, NOrec, func(c *Config) {
		c.MaxThreads = 8
		c.FlightRecorder = true
		c.FlightDir = dir
		c.TimeSeries = 64
		c.TimeSeriesInterval = 5 * time.Millisecond
		c.SLOs = []obs.SLO{{
			Kind: obs.SLOAbortRate, MaxRate: 0.05,
			Fast: 10 * time.Millisecond, Slow: 20 * time.Millisecond,
		}}
		c.Trace = true
		c.Attribution = true
		c.Stats = true
	})
	const workers = 4
	stop := make(chan struct{})
	shared := NewVar(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.MustRegister()
			defer th.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = th.Atomically(func(tx *Tx) error {
					n := tx.Load(shared).(int)
					runtime.Gosched() // let another writer in: most attempts abort
					tx.Store(shared, n+1)
					return nil
				})
			}
		}()
	}
	var bundles []obs.FlightBundle
	for deadline := time.Now().Add(10 * time.Second); len(bundles) == 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		bundles = flightBundles(t, dir)
	}
	close(stop)
	wg.Wait()
	if len(bundles) == 0 {
		t.Fatal("no flight bundle appeared under contention")
	}
	b := bundles[0]
	if !strings.Contains(b.Reason, "slo burn: abort-rate") || b.UnixNanos == 0 {
		t.Errorf("bundle reason/timestamp: %q %d", b.Reason, b.UnixNanos)
	}
	if !b.Latency.Enabled || b.Latency.SampleEvery == 0 {
		t.Error("bundle latency section empty (FlightRecorder must imply Latency)")
	}
	if !b.Conflict.Enabled {
		t.Error("bundle conflict section not enabled")
	}
	if b.TimeSeries == nil || len(b.TimeSeries.Alerts) == 0 {
		t.Error("bundle time-series section carries no alert")
	}
	if len(b.Trace) == 0 {
		t.Error("bundle trace section empty with Config.Trace set")
	}
	if !strings.Contains(b.Stacks, "goroutine") {
		t.Error("bundle stacks section empty")
	}
	// Leftover temp files would mean a non-atomic write path.
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".flight-*.tmp")); len(tmp) != 0 {
		t.Errorf("temp files left behind: %v", tmp)
	}
}

// TestFlightRecorderOneGoroutine: arming the recorder adds no goroutine of
// its own — a running System has exactly one telemetry goroutine, the
// time-series sampler, and Close joins it. The baseline push startServers
// makes never dumps.
func TestFlightRecorderOneGoroutine(t *testing.T) {
	roles := func(role string) int {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), `"stm-role":"`+role+`"`)
	}
	samplers := roles("timeseries-sampler")
	dir := t.TempDir()
	s, err := New(Config{Algo: RInvalV2, MaxThreads: 4, InvalServers: 2, FlightRecorder: true, FlightDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Config(); c.TimeSeries != DefaultTimeSeriesWindows || !c.Latency {
		t.Errorf("FlightRecorder must imply TimeSeries and Latency: TimeSeries=%d Latency=%v", c.TimeSeries, c.Latency)
	}
	// The label appears once the new goroutine has run its first instruction.
	for deadline := time.Now().Add(5 * time.Second); roles("timeseries-sampler") == samplers && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if got := roles("timeseries-sampler") - samplers; got != 1 {
		t.Errorf("%d sampler goroutines started, want 1", got)
	}
	if got := roles("flight-recorder"); got != 0 {
		t.Errorf("%d goroutines labelled flight-recorder, want none", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := roles("timeseries-sampler") - samplers; got != 0 {
		t.Errorf("Close left %d sampler goroutines running", got)
	}
	if b := flightBundles(t, dir); len(b) != 0 {
		t.Errorf("idle system dumped: %q", b[0].Reason)
	}
}

// TestFlightCheckDuringCommits runs the flight check against live V2 commits
// (it reads slot states, stream and partition timestamps and partition locks
// that clients and servers are writing) for the race detector's benefit.
// Back-to-back ticks can catch one request PENDING twice, so what is dumped
// is not asserted — only that whatever is written parses.
func TestFlightCheckDuringCommits(t *testing.T) {
	dir := t.TempDir()
	s := newSys(t, RInvalV2, func(c *Config) {
		c.FlightRecorder = true
		c.FlightDir = dir
		c.TimeSeriesInterval = time.Minute // the test is the only ticker
	})
	th, done := s.MustRegister(), make(chan struct{})
	go func() {
		defer close(done)
		v := NewVar(0)
		for i := 0; i < 2000; i++ {
			_ = th.Atomically(func(tx *Tx) error { tx.Store(v, tx.Load(v).(int)+1); return nil })
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			s.tsTick(time.Now().UnixNano())
		}
	}
	th.Close()
	flightBundles(t, dir)
}

// TestDumpFlightBundleDirect covers the operator-initiated dump entry point
// on a quiescent system.
func TestDumpFlightBundleDirect(t *testing.T) {
	dir := t.TempDir()
	s := newSys(t, RInvalV2, func(c *Config) {
		c.Latency = true
		c.LatencySampleEvery = 1
		c.FlightDir = dir
		c.Trace = true
	})
	th := s.MustRegister()
	v := NewVar(0)
	for i := 0; i < 50; i++ {
		_ = th.Atomically(func(tx *Tx) error { tx.Store(v, i); return nil })
	}
	th.Close()
	path, err := s.DumpFlightBundle("operator request")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b obs.FlightBundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "operator request" || b.Latency.SampledCommits != 50 {
		t.Fatalf("bundle contents wrong: reason=%q sampled=%d", b.Reason, b.Latency.SampledCommits)
	}
}

// TestLatencyConfigValidation pins the observability knobs' defaulting and
// range checks.
func TestLatencyConfigValidation(t *testing.T) {
	c, err := Config{FlightRecorder: true}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.LatencySampleEvery != 64 || c.FlightDir != "flight" {
		t.Errorf("bad observability defaults: %+v", c)
	}
	bad := []Config{
		{Latency: true, LatencySampleEvery: -1},
		{Latency: true, LatencySampleEvery: 1 << 21},
	}
	for _, b := range bad {
		if _, err := b.withDefaults(); err == nil {
			t.Errorf("config %+v accepted", b)
		}
	}
}

// BenchmarkLatencyOverhead measures the exact per-transaction client
// instrumentation sequence — the sampling decision plus every latOn-gated
// clock read and record — in isolation. The "off" case (nil cell, Latency
// unset) is the always-on budget: it must stay within a couple of
// nanoseconds and allocation-free.
// latOverheadLoop is the exact per-transaction client instrumentation
// sequence — the sampling decision plus every latOn-gated clock read and
// record — concentrated into one loop, on a heap Tx as Atomically uses.
//
//go:noinline
func latOverheadLoop(n int, cell *obs.LatCell) {
	tx := new(Tx)
	tx.lat = cell
	for i := 0; i < n; i++ {
		if tx.lat != nil && tx.lat.Sample() { // Atomically entry
			tx.latOn = true
			tx.latT0 = obs.Now()
			tx.latAttemptT0 = tx.latT0
			tx.latRetryNs = 0
		} else if tx.latOn {
			tx.latOn = false
		}
		var latC0 int64
		if tx.latOn { // finishCommit() pre-commit
			latC0 = obs.Now()
		}
		if tx.latOn { // finishCommit() success path
			end := obs.Now()
			tx.lat.CommitSample(latC0-tx.latAttemptT0, end-latC0, tx.latRetryNs, end-tx.latT0)
		}
	}
}

func BenchmarkLatencyOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		latOverheadLoop(b.N, nil)
	})
	b.Run("on-1in64", func(b *testing.B) {
		rec := obs.NewLatencyRecorder(1, 0, 64)
		b.ReportAllocs()
		latOverheadLoop(b.N, rec.Client(0))
	})
	b.Run("on-every", func(b *testing.B) {
		rec := obs.NewLatencyRecorder(1, 0, 1)
		b.ReportAllocs()
		latOverheadLoop(b.N, rec.Client(0))
	})
}
