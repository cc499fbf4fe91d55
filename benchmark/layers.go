package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/core"
	"github.com/ssrg-vt/rinval/internal/padded"
	"github.com/ssrg-vt/rinval/internal/spin"
	"github.com/ssrg-vt/rinval/internal/stamp"
	"github.com/ssrg-vt/rinval/stm"
)

// sink keeps the results of measured calls alive.
var sink atomic.Uint64

// batches holds, per timed function, the mean nanoseconds per call of each
// batch. The functions took turns batch by batch, so batch k of one function
// and batch k of another saw the same drift.
type batches [][]float64

// med is the median over the batches of function i.
func (b batches) med(i int) float64 { return median(b[i]) }

// diff is the median over the batches of function i minus function j.
func (b batches) diff(i, j int) float64 {
	d := make([]float64, len(b[i]))
	for k := range d {
		d[k] = b[i][k] - b[j][k]
	}
	return median(d)
}

// perCall times the given functions, each of which makes n calls into a
// layer, in p.microBatches batches. A function's n is sized once so that a
// batch lasts about p.microBatch.
func (p plan) perCall(fns ...func(n int)) batches {
	timed := func(fn func(n int), n int) float64 {
		t0 := now()
		fn(n)
		return float64(now() - t0)
	}
	ns := make([]int, len(fns))
	out := make(batches, len(fns))
	for i, fn := range fns {
		const probe = 200
		per := timed(fn, probe) / probe
		ns[i] = max(int(float64(p.microBatch)/max(per, 1)), 1)
	}
	for b := 0; b < p.microBatches; b++ {
		for i, fn := range fns {
			out[i] = append(out[i], timed(fn, ns[i])/float64(ns[i]))
		}
	}
	return out
}

// layerMetrics measures the layers that do not depend on the workload:
// bloom, handoff, core (by differencing transaction shapes), the stm wrapper
// and the cost of each telemetry knob. They are timed from here, through the
// layers' exported functions.
func layerMetrics(p plan, seed uint64) metrics {
	var m metrics
	bloomMetrics(p, seed, &m)
	handoffMetrics(p, &m)
	coreMetrics(p, seed, &m)
	wrapMetric(p, seed, &m)
	obsMetrics(p, seed, &m)
	return m
}

// bloomMetrics: a 64-id read signature and a 2-id write signature, the
// shapes scan_ro_c1 and commit_short_c1 produce.
func bloomMetrics(p plan, seed uint64, m *metrics) {
	const readIDs, writeIDs = 64, 2
	geo := bloom.DefaultParams
	rng := stamp.NewRand(seed, 2000)
	// Read ids are odd and write ids even, so the two sets are disjoint.
	ids := make([]uint64, readIDs)
	for i := range ids {
		ids[i] = rng.Uint64() | 1
	}
	read, full, write, plain := bloom.NewAtomic(geo), bloom.NewAtomic(geo), bloom.NewFilter(geo), bloom.NewFilter(geo)
	for _, id := range ids {
		full.Add(id)
	}
	// A write signature the full word scan finds disjoint: the scan's common case.
	for {
		write.Clear()
		for i := 0; i < writeIDs; i++ {
			write.Add(rng.Uint64() &^ 1)
		}
		if !full.IntersectsFilter(write) {
			break
		}
	}
	one := bloom.NewAtomic(geo)
	one.Add(ids[0])
	miss := ^one.Summary()

	t := p.perCall(
		func(n int) { // a transaction's worth of fresh ids, then Clear
			for i := 0; i < n; i++ {
				for _, id := range ids {
					read.Add(id)
				}
				read.Clear()
			}
		},
		func(n int) {
			for i := 0; i < n; i++ {
				read.Clear()
			}
		},
		func(n int) {
			for i := 0; i < n; i++ {
				full.Add(ids[i%readIDs])
			}
		},
		func(n int) {
			for i := 0; i < n; i++ {
				plain.Add(ids[i%readIDs])
			}
		},
		func(n int) {
			hits := uint64(0)
			for i := 0; i < n; i++ {
				if full.IntersectsFilter(write) {
					hits++
				}
			}
			sink.Add(hits)
		},
		func(n int) {
			hits := uint64(0)
			for i := 0; i < n; i++ {
				if one.SummaryIntersects(miss) {
					hits++
				}
			}
			sink.Add(hits)
		},
	)
	m.add("bloom.atomic_add_ns", t.diff(0, 1)/readIDs, "ns")
	m.add("bloom.atomic_add_dup_ns", t.med(2), "ns")
	m.add("bloom.filter_add_ns", t.med(3), "ns")
	m.add("bloom.intersect_ns", t.med(4), "ns")
	m.add("bloom.summary_reject_ns", t.med(5), "ns")
	m.add("bloom.clear_ns", t.med(1), "ns")

	// False conflicts: disjoint 64-id and 2-id sets whose signatures
	// intersect. A count over generated ids, so exact for a seed.
	const pairs = 20_000
	falsePositives := 0
	for i := 0; i < pairs; i++ {
		read.Clear()
		for j := 0; j < readIDs; j++ {
			read.Add(rng.Uint64() | 1)
		}
		plain.Clear()
		for j := 0; j < writeIDs; j++ {
			plain.Add(rng.Uint64() &^ 1)
		}
		if read.IntersectsFilter(plain) {
			falsePositives++
		}
	}
	m.add("bloom.fp_ratio_r64_w2", float64(falsePositives)/pairs, "ratio")
}

// handoffMetrics: two goroutines ping-pong a pair of padded words with the
// library's adaptive waiter — the client⇄server mailbox, and so the floor
// under any remote commit. Round trips are timed in batches of rttBatch.
func handoffMetrics(p plan, m *metrics) {
	const rttBatch = 256
	var ping, pong padded.Uint32
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var w spin.Waiter
		for seq := uint32(1); ; seq++ {
			for ping.Load() != seq {
				if done.Load() {
					return
				}
				w.Wait()
			}
			w.Reset()
			pong.Store(seq)
		}
	}()
	var w spin.Waiter
	seq := uint32(0)
	rtts := make([]float64, 8*p.microBatches)
	for b := range rtts {
		t0 := now()
		for i := 0; i < rttBatch; i++ {
			seq++
			ping.Store(seq)
			for pong.Load() != seq {
				w.Wait()
			}
			w.Reset()
		}
		rtts[b] = float64(now()-t0) / rttBatch
	}
	done.Store(true)
	wg.Wait()
	slices.Sort(rtts)
	m.add("handoff.rtt_ns_p50", quantile(rtts, 0.50), "ns")
	m.add("handoff.rtt_ns_p90", quantile(rtts, 0.90), "ns")
}

// coreRig is one core.System with a registered thread and the Vars the
// transaction shapes touch.
type coreRig struct {
	sys  *core.System
	th   *core.Thread
	idle []*core.Thread
	vars []*core.Var
}

// newCoreRig builds the configuration the workloads use, plus `idle`
// registered threads that never run a transaction.
func newCoreRig(algo core.Algo, seed uint64, idle int) *coreRig {
	r := &coreRig{sys: core.MustNew(core.Config{Algo: algo, MaxThreads: idle + 2, InvalServers: 1, Seed: seed})}
	r.th = r.sys.MustRegister()
	for i := 0; i < idle; i++ {
		r.idle = append(r.idle, r.sys.MustRegister())
	}
	for i := 0; i < 65; i++ {
		r.vars = append(r.vars, core.NewVar(i))
	}
	return r
}

func (r *coreRig) close() {
	r.th.Close()
	for _, th := range r.idle {
		th.Close()
	}
	_ = r.sys.Close() // every thread is closed, so Close has nothing to refuse
}

// shape returns a function running n transactions of `reads` loads and
// `writes` stores. The stored value is boxed once, so the allocations counted
// are the engine's own.
func (r *coreRig) shape(reads, writes int) func(n int) {
	var val any = 7
	body := func(tx *core.Tx) error {
		for _, v := range r.vars[:reads] {
			tx.Load(v)
		}
		for _, v := range r.vars[:writes] {
			tx.Store(v, val)
		}
		return nil
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			_ = r.th.Atomically(body) // the body never returns an error
		}
	}
}

// coreMetrics differences transaction shapes run through
// core.Thread.Atomically.
func coreMetrics(p plan, seed uint64, m *metrics) {
	var ro1, load, store, commit, allocs, scan metrics
	for _, algo := range engines {
		e := algo.String()
		r := newCoreRig(algo, seed, 0)
		w1 := r.shape(0, 1)
		t := p.perCall(r.shape(1, 0), r.shape(65, 0), w1, r.shape(0, 9))
		ro1.add("core.tx_ro1_ns."+e, t.med(0), "ns")
		load.add("core.load_ns."+e, t.diff(1, 0)/64, "ns")
		store.add("core.store_ns."+e, t.diff(3, 2)/8, "ns")
		commit.add("core.commit_w1_ns."+e, t.diff(2, 0), "ns")

		const allocTx = 20_000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w1(allocTx)
		runtime.ReadMemStats(&after)
		allocs.add("core.allocs_w1."+e, float64(after.Mallocs-before.Mallocs)/allocTx, "allocs/tx")

		if algo != stm.NOrec {
			// What one more registered, idle thread adds to a commit's
			// invalidation scan.
			const idle = 32
			crowded := newCoreRig(algo, seed, idle)
			t := p.perCall(crowded.shape(0, 1), w1)
			scan.add("core.scan_per_slot_ns."+e, t.diff(0, 1)/idle, "ns")
			crowded.close()
		}
		r.close()
	}
	for _, group := range []metrics{ro1, load, store, commit, allocs, scan} {
		*m = append(*m, group...)
	}
}

// wrapMetric: what the public generic wrapper adds to a 1-read NOrec
// transaction, against the same transaction through core directly.
func wrapMetric(p plan, seed uint64, m *metrics) {
	direct := newCoreRig(stm.NOrec, seed, 0)
	sys := stm.MustNew(stm.Config{Algo: stm.NOrec, MaxThreads: 2, InvalServers: 1, Seed: seed})
	th := sys.MustRegister()
	v := stm.NewVar(0)
	body := func(tx *stm.Tx) error {
		v.Load(tx)
		return nil
	}
	t := p.perCall(func(n int) {
		for i := 0; i < n; i++ {
			_ = th.Atomically(body) // the body never returns an error
		}
	}, direct.shape(1, 0))
	th.Close()
	_ = sys.Close() // its only thread is closed
	direct.close()
	m.add("stm.wrap_ns", t.diff(0, 1), "ns")
}

// obsMetrics: what each telemetry knob of Config adds to a
// commit_short_c1-shaped transaction on rinval-v2, against a System with
// every knob off.
func obsMetrics(p plan, seed uint64, m *metrics) {
	base := stm.Config{Algo: stm.RInvalV2, MaxThreads: 2, InvalServers: 1, Seed: seed}
	knobs := []struct {
		name string
		set  func(*stm.Config)
	}{
		{"stats", func(c *stm.Config) { c.Stats = true }},
		{"latency", func(c *stm.Config) { c.Latency = true }},
		{"attribution", func(c *stm.Config) { c.Attribution = true }},
		{"trace", func(c *stm.Config) { c.Trace = true }},
		{"timeseries", func(c *stm.Config) { c.TimeSeries = stm.DefaultTimeSeriesWindows }},
	}
	// rig returns a function running n transfers on a System built from cfg,
	// and the function that closes it.
	rig := func(cfg stm.Config) (run func(n int), closeRig func()) {
		sys := stm.MustNew(cfg)
		th := sys.MustRegister()
		inst, _ := buildBank(sys, p, seed) // buildBank cannot fail
		step := inst.client(0, th, stamp.NewRand(seed, 3000), nil)
		run = func(n int) {
			for i := 0; i < n; i++ {
				_ = step() // the transfer body never returns an error
			}
		}
		return run, func() {
			th.Close()
			_ = sys.Close() // its only thread is closed
		}
	}
	for _, k := range knobs {
		cfg := base
		k.set(&cfg)
		off, closeOff := rig(base)
		on, closeOn := rig(cfg)
		t := p.perCall(on, off)
		closeOn()
		closeOff()
		m.add("obs."+k.name+"_ns_per_tx", t.diff(0, 1), "ns")
	}
}
