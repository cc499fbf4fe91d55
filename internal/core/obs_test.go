package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// TestAbortReasonsSumToAborts drives every engine through a contended
// workload plus explicit user aborts and checks the taxonomy invariant: the
// conflict reasons sum exactly to Aborts, and user aborts land only in the
// AbortExplicit bucket.
func TestAbortReasonsSumToAborts(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := newSys(t, algo, nil)
		counter := NewVar(0)
		boom := errors.New("boom")
		const workers, per, userAbortEvery = 6, 120, 10
		var wg sync.WaitGroup
		var userAborts atomic.Uint64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				for i := 0; i < per; i++ {
					err := th.Atomically(func(tx *Tx) error {
						tx.Store(counter, tx.Load(counter).(int)+1)
						if i%userAbortEvery == 0 {
							return boom
						}
						return nil
					})
					if errors.Is(err, boom) {
						userAborts.Add(1)
					} else if err != nil {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		st := s.Stats()
		if got := st.ConflictAborts(); got != st.Aborts {
			t.Fatalf("conflict reasons sum to %d, Aborts = %d (reasons %v)",
				got, st.Aborts, st.AbortReasons)
		}
		if got := st.AbortReasons[AbortExplicit]; got != userAborts.Load() {
			t.Fatalf("AbortExplicit = %d, want %d user aborts", got, userAborts.Load())
		}
		if algo == Mutex && st.Aborts != 0 {
			t.Fatalf("mutex engine recorded conflict aborts: %v", st.AbortReasons)
		}
	})
}

// TestConcurrentStatsSnapshots hammers System.Stats and Thread.Stats from a
// sampler goroutine while transactions run (the -race target for the live
// snapshot path) and checks that every counter a snapshot reports is
// monotonic across samples.
func TestConcurrentStatsSnapshots(t *testing.T) {
	for _, algo := range []Algo{NOrec, InvalSTM, RInvalV2, TL2} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo, nil)
			counter := NewVar(0)
			var stop atomic.Bool

			const workers, per = 4, 300
			var ths []*Thread
			for w := 0; w < workers; w++ {
				ths = append(ths, s.MustRegister())
			}
			var workersWG sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				workersWG.Add(1)
				go func() {
					defer workersWG.Done()
					for i := 0; i < per; i++ {
						_ = ths[w].Atomically(func(tx *Tx) error {
							tx.Store(counter, tx.Load(counter).(int)+1)
							return nil
						})
					}
				}()
			}

			sample := func(st Stats) [5]uint64 {
				return [5]uint64{st.Commits, st.Aborts, st.Reads, st.ConflictAborts(), st.Writes}
			}
			samplerDone := make(chan struct{})
			go func() {
				defer close(samplerDone)
				var lastSys, lastTh [5]uint64
				for !stop.Load() {
					cur := sample(s.Stats())
					for i := range cur {
						if cur[i] < lastSys[i] {
							t.Errorf("System.Stats counter %d went backwards: %d -> %d", i, lastSys[i], cur[i])
							return
						}
					}
					lastSys = cur
					curTh := sample(ths[0].Stats())
					for i := range curTh {
						if curTh[i] < lastTh[i] {
							t.Errorf("Thread.Stats counter %d went backwards: %d -> %d", i, lastTh[i], curTh[i])
							return
						}
					}
					lastTh = curTh
					// Throttle: an unthrottled sampler starves the workers
					// of cores on small machines.
					time.Sleep(200 * time.Microsecond)
				}
			}()

			workersWG.Wait()
			stop.Store(true)
			<-samplerDone
			for _, th := range ths {
				// Every attempt issues one Load, and one Store unless that
				// Load aborted it: the end-of-attempt folds lose nothing.
				if st := th.Stats(); st.Reads != st.Commits+st.Aborts || st.Writes < st.Commits || st.Writes > st.Reads {
					t.Errorf("thread %d: %d reads, %d writes for %d commits + %d aborts", th.ID(), st.Reads, st.Writes, st.Commits, st.Aborts)
				}
				th.Close()
			}
			if got := counter.Peek().(int); got != workers*per {
				t.Fatalf("lost updates: %d != %d", got, workers*per)
			}
		})
	}
}

// TestTraceLifecycle runs each engine with tracing on and checks the tracer
// retains per-actor tracks with begin/tx events, server tracks for the
// remote engines, and a loadable Chrome export.
func TestTraceLifecycle(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		s := atFourPs(t, New, Config{Algo: algo, MaxThreads: 4, InvalServers: 2, StepsAhead: 2,
			Trace: true, TraceEvents: 256})
		counter := NewVar(0)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.MustRegister()
				defer th.Close()
				for i := 0; i < 50; i++ {
					_ = th.Atomically(func(tx *Tx) error {
						tx.Store(counter, tx.Load(counter).(int)+1)
						return nil
					})
				}
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		tr := s.Tracer()
		if tr == nil {
			t.Fatal("Trace enabled but Tracer() is nil")
		}
		names := map[string]bool{}
		for i := 0; i < tr.Actors(); i++ {
			names[tr.ActorName(i)] = true
		}
		if !names["client-0"] {
			t.Fatalf("missing client track: %v", names)
		}
		switch algo {
		case RInvalV1:
			if !names["commit-server"] {
				t.Fatalf("V1 missing commit-server track: %v", names)
			}
		case RInvalV2, RInvalV3:
			if !names["commit-server"] || !names["inval-server-0"] || !names["inval-server-1"] {
				t.Fatalf("remote engine missing server tracks: %v", names)
			}
		}
		if algo != Mutex && tr.Events() == 0 {
			t.Fatal("no events recorded")
		}

		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var parsed map[string]any
		if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
			t.Fatalf("chrome trace not valid JSON: %v", err)
		}
		if _, ok := parsed["traceEvents"]; !ok {
			t.Fatal("chrome trace missing traceEvents")
		}
	})
}

// TestTraceDisabledHasNoTracer checks the default configuration records
// nothing and exposes no tracer.
func TestTraceDisabledHasNoTracer(t *testing.T) {
	s := newSys(t, RInvalV2, nil)
	th := s.MustRegister()
	defer th.Close()
	x := NewVar(0)
	if err := th.Atomically(func(tx *Tx) error { tx.Store(x, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if s.Tracer() != nil {
		t.Fatal("Tracer() non-nil without Config.Trace")
	}
}

func TestTraceEventsValidation(t *testing.T) {
	if _, err := (Config{Trace: true, TraceEvents: 4}).withDefaults(); err == nil {
		t.Error("TraceEvents=4 accepted")
	}
	if _, err := (Config{Trace: true, TraceEvents: 1 << 23}).withDefaults(); err == nil {
		t.Error("TraceEvents=8Mi accepted")
	}
	c, err := (Config{Trace: true}).withDefaults()
	if err != nil || c.TraceEvents != obs.DefaultRingEvents {
		t.Errorf("default TraceEvents = %d, %v", c.TraceEvents, err)
	}
}

// TestServerPhaseHistograms checks every epoch lands in the latency report's
// server phases when Latency is on, and in the queue-depth samples regardless.
func TestServerPhaseHistograms(t *testing.T) {
	for _, algo := range []Algo{RInvalV1, RInvalV2, RInvalV3} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := atFourPs(t, New, Config{Algo: algo, MaxThreads: 4, InvalServers: 2, StepsAhead: 2, Latency: true})
			x := NewVar(0)
			th := s.MustRegister()
			for i := 0; i < 40; i++ {
				if err := th.Atomically(func(tx *Tx) error {
					tx.Store(x, i)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Server.QueueDepth.Count() == 0 {
				t.Fatal("no queue-depth samples")
			}
			phases := serverPhaseCounts(s)
			for _, name := range []string{"collect", "write-back", "reply"} {
				if phases[name] != st.Epochs {
					t.Fatalf("phase %q has %d samples, want one per epoch (%d): %v", name, phases[name], st.Epochs, phases)
				}
			}
			if algo == RInvalV3 && st.Server.StepAhead.Count() == 0 {
				t.Fatal("V3 recorded no step-ahead samples")
			}
			if algo == RInvalV1 && phases["scan"] != st.Epochs {
				t.Fatalf("V1 recorded %d inline invalidation scans over %d epochs", phases["scan"], st.Epochs)
			}
		})
	}
}

// TestAbortReasonConstantsAlias pins the core aliases to the obs taxonomy so
// a reorder in either package fails loudly.
func TestAbortReasonConstantsAlias(t *testing.T) {
	pairs := []struct {
		core, obs AbortReason
		name      string
	}{
		{AbortInvalidated, obs.AbortInvalidated, "invalidated"},
		{AbortValidation, obs.AbortValidation, "validation"},
		{AbortLocked, obs.AbortLocked, "locked"},
		{AbortExplicit, obs.AbortExplicit, "explicit"},
	}
	for _, p := range pairs {
		if p.core != p.obs || p.core.String() != p.name {
			t.Errorf("alias mismatch: %v / %v / %s", p.core, p.obs, p.name)
		}
	}
	if fmt.Sprint(NumAbortReasons) != fmt.Sprint(obs.NumAbortReasons) {
		t.Error("NumAbortReasons mismatch")
	}
}

// TestServerHistogramsLiveScrape: the /metrics source reads the per-epoch
// histograms while epoch drivers record into them (rinval-bench -metrics
// scrapes a live System). Under -race a plain copy of a histogram the stream
// lock holder is recording into fails here. The commits go on until the
// scraper has finished a scrape: nothing at a transaction boundary yields,
// so on one P a fixed count can end before the scraper is first scheduled.
func TestServerHistogramsLiveScrape(t *testing.T) {
	s, err := New(Config{Algo: RInvalV2, MaxThreads: 2, InvalServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	var scrapes atomic.Int64
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			default:
				s.ServerPhaseHistograms()
				scrapes.Add(1)
			}
		}
	}()
	x := NewVar(0)
	th := s.MustRegister()
	for i := 0; i < 2000 || scrapes.Load() == 0; i++ {
		if err := th.Atomically(func(tx *Tx) error {
			tx.Store(x, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	<-stopped
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	epochs := s.Stats().Epochs
	for _, nh := range s.ServerPhaseHistograms() {
		if nh.Name != "stm_server_step_ahead" && nh.Hist.Count() != epochs {
			t.Errorf("%s has %d samples over %d epochs", nh.Name, nh.Hist.Count(), epochs)
		}
	}
}
