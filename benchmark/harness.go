package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/ssrg-vt/rinval/internal/stamp"
	"github.com/ssrg-vt/rinval/stm"
)

// engines are the four systems every workload is measured on.
var engines = []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2}

// batchTx is the closed loop's batch: the clock is read once per batch, and
// the first transaction of each batch is the one timed individually.
const batchTx = 32

// plan sizes one invocation. A cell is (workload, engine, round): a fresh
// System, populated, warmed up, measured, closed and checked.
type plan struct {
	rounds   int
	slices   int           // timed slices per cell
	slice    time.Duration // length of one timed slice
	warmup   int           // warm-up transactions per cell
	tracedTx int           // transactions of one traced cell
	treeKeys int           // key range of rbtree_mix_c1

	microBatches int           // batches per layer micro-metric
	microBatch   time.Duration // target length of one batch
}

// sliceLen is never shortened: a run that must be shorter gets fewer slices.
const sliceLen = 100 * time.Millisecond

// treeKeys is rbtree_mix_c1's key range: 2 Ki nodes, about 1.4 MB of Vars and
// boxes, which a core's cache holds. At the paper's 64 Ki the tree is 20 MB
// and its throughput followed the host's memory contention, ±30 % from run to
// run on all four engines at once (see README.md).
const treeKeys = 4 << 10

// endToEndPlan spends `seconds` of measurement on one workload: 8 rounds × 4
// engines × (1 host-reference slice + the cell's timed slices) × 100 ms.
// Throughput differs more from cell to cell than a cell's slices explain, so
// a run is many short cells rather than few long ones.
func endToEndPlan(seconds float64) plan {
	const rounds = 8
	slices := int(seconds/(sliceLen.Seconds()*rounds*float64(len(engines)))) - 1
	return plan{rounds: rounds, slices: max(slices, 1), slice: sliceLen, warmup: 50_000, treeKeys: treeKeys}
}

// tracePlan sizes a traced run by counts, not by time, so that the counts of
// a single-client workload repeat exactly: a fixed number of traced
// transactions, a short untraced reference for the overhead figure, and
// fixed-length micro-benchmark batches.
func tracePlan() plan {
	return plan{
		rounds: 1, slices: 10, slice: sliceLen, warmup: 50_000, tracedTx: 200_000, treeKeys: treeKeys,
		microBatches: 50, microBatch: 3 * time.Millisecond,
	}
}

// latBuf holds one client's individually timed transactions of one engine,
// pooled over every slice of the invocation. It is sized before the first
// slice and stops sampling when full rather than grow.
type latBuf struct {
	ns []uint32
}

func (l *latBuf) add(d int64) {
	if len(l.ns) < cap(l.ns) {
		l.ns = append(l.ns, uint32(min(d, math.MaxUint32)))
	}
}

// series accumulates what the cells of one (workload, engine) measured.
type series struct {
	rates   []float64 // committed tx per second, one per timed slice
	lat     []*latBuf // one per client
	tx      uint64    // committed in timed slices
	mallocs uint64    // process-wide, over the timed slices
	bytes   uint64
	cpu     time.Duration // user+sys of the process over the timed slices
	wall    time.Duration
}

func newSeries(w workload, p plan) *series {
	s := &series{rates: make([]float64, 0, p.rounds*p.slices)}
	// Room for 4 M tx/s per client, three times the fastest engine here.
	perSlice := int(p.slice.Seconds()*4e6)/batchTx + 1
	for c := 0; c < w.clients; c++ {
		s.lat = append(s.lat, &latBuf{ns: make([]uint32, 0, p.rounds*p.slices*perSlice)})
	}
	return s
}

// latencies pools the clients' samples, sorted.
func (s *series) latencies() []float64 {
	n := 0
	for _, l := range s.lat {
		n += len(l.ns)
	}
	all := make([]float64, 0, n)
	for _, l := range s.lat {
		for _, ns := range l.ns {
			all = append(all, float64(ns))
		}
	}
	slices.Sort(all)
	return all
}

// clientCmd is one phase of a cell handed to a client goroutine: exactly
// count transactions when count > 0, else batches until deadline with the
// first transaction of each batch timed into lat.
type clientCmd struct {
	step     func() error
	count    int
	deadline int64
	lat      *latBuf
}

type clientOut struct {
	tx, failed uint64
	end        int64
}

func (c clientCmd) run() clientOut {
	var out clientOut
	tally := func(err error) {
		if err != nil {
			out.failed++
		} else {
			out.tx++
		}
	}
	if c.count > 0 {
		for i := 0; i < c.count; i++ {
			tally(c.step())
		}
		out.end = now()
		return out
	}
	for {
		t0 := now()
		if t0 >= c.deadline {
			out.end = t0
			return out
		}
		err := c.step()
		c.lat.add(now() - t0)
		tally(err)
		for i := 1; i < batchTx; i++ {
			tally(c.step())
		}
	}
}

// clients are a cell's client goroutines. They live for the whole cell, so
// starting a slice is a channel send and allocates nothing.
type clients struct {
	cmds []chan clientCmd
	outs chan clientOut
}

func startClients(n int) *clients {
	cs := &clients{outs: make(chan clientOut)}
	for i := 0; i < n; i++ {
		cmd := make(chan clientCmd)
		cs.cmds = append(cs.cmds, cmd)
		go func() {
			for c := range cmd {
				cs.outs <- c.run()
			}
		}()
	}
	return cs
}

// phase runs one command per client and returns the committed and failed
// counts and the wall time until the last client finished.
func (cs *clients) phase(cmd func(i int) clientCmd) (tx, failed uint64, wall time.Duration) {
	start := now()
	for i, ch := range cs.cmds {
		ch <- cmd(i)
	}
	end := start
	for range cs.cmds {
		out := <-cs.outs
		tx += out.tx
		failed += out.failed
		end = max(end, out.end)
	}
	return tx, failed, time.Duration(end - start)
}

// stop ends the client goroutines; every phase has already been collected.
func (cs *clients) stop() {
	for _, ch := range cs.cmds {
		close(ch)
	}
}

// cellOut is what one cell reports besides the slices it adds to a series.
type cellOut struct {
	setup     time.Duration // stm.New to the first measured transaction
	attempted uint64        // transactions issued (warm-up included) + 1 output check
	failed    uint64        // unexpected Atomically errors + a failed output check
	err       error         // the first failure, for the report

	measuredTx uint64    // committed in the measured phase
	measured   stm.Stats // client threads' counters over the measured phase
	clientLife stm.Stats // all threads' counters over the System's life
	life       stm.Stats // clientLife plus the servers' counters, read after Close
	recs       []*recorder
	server     map[string]float64 // commit-server phase means (traced RInval cells)
}

// processCounters are the process-wide costs read between cells.
type processCounters struct {
	mallocs, bytes uint64
	cpu            time.Duration
}

func readProcess() processCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return processCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: cpu}
}

// threadStats sums the client threads' counters.
func threadStats(ths []*stm.Thread) stm.Stats {
	var s stm.Stats
	for _, th := range ths {
		s.Add(th.Stats())
	}
	return s
}

// runCell runs one cell. With traced set, the measured phase is p.tracedTx
// transactions recorded span by span (and, on the RInval engines, the
// program's own latency decomposition switched on); otherwise it is p.slices
// timed slices appended to acc.
func runCell(w workload, algo stm.Algo, round int, seed uint64, p plan, traced bool, acc *series) cellOut {
	var out cellOut
	fail := func(err error) cellOut {
		out.failed++
		if out.err == nil {
			out.err = fmt.Errorf("%s/%s round %d: %w", w.name, algo, round, err)
		}
		return out
	}

	t0 := now()
	cfg := stm.Config{Algo: algo, MaxThreads: w.clients + 1, InvalServers: 1, Seed: seed}
	remote := algo == stm.RInvalV1 || algo == stm.RInvalV2
	if traced && remote {
		cfg.Latency, cfg.LatencySampleEvery = true, 1
	}
	sys, err := stm.New(cfg)
	if err != nil {
		return fail(err)
	}
	inst, err := w.build(sys, p, seed)
	if err != nil {
		_ = sys.Close() // reporting the build error; nothing was measured
		return fail(err)
	}
	ths := make([]*stm.Thread, w.clients)
	rngs := make([]*stamp.Rand, w.clients)
	steps := make([]func() error, w.clients)
	for i := range ths {
		ths[i] = sys.MustRegister() // MaxThreads leaves a slot for each client
		// Every engine of a round is given the same generated inputs.
		rngs[i] = stamp.NewRand(seed, uint64(round*w.clients+i)+1)
		steps[i] = inst.client(i, ths[i], rngs[i], nil)
	}
	cs := startClients(w.clients)
	_, failed, _ := cs.phase(func(i int) clientCmd {
		return clientCmd{step: steps[i], count: p.warmup / w.clients}
	})
	out.attempted += uint64(p.warmup/w.clients) * uint64(w.clients)
	out.failed += failed
	if traced {
		out.recs = make([]*recorder, w.clients)
		for i := range steps {
			// tx + attempt + ops per transaction, with room for retried attempts.
			out.recs[i] = newRecorder(p.tracedTx / w.clients * (2 + w.opsPerTx) * 5 / 4)
			steps[i] = inst.client(i, ths[i], rngs[i], out.recs[i])
		}
	}
	runtime.GC()
	before := threadStats(ths)
	out.setup = time.Duration(now() - t0)

	if traced {
		tx, failed, _ := cs.phase(func(i int) clientCmd {
			return clientCmd{step: steps[i], count: p.tracedTx / w.clients}
		})
		out.measuredTx, out.failed = tx, out.failed+failed
		out.attempted += tx + failed
	} else {
		pc := readProcess()
		for s := 0; s < p.slices; s++ {
			deadline := now() + int64(p.slice)
			tx, failed, wall := cs.phase(func(i int) clientCmd {
				return clientCmd{step: steps[i], deadline: deadline, lat: acc.lat[i]}
			})
			acc.rates = append(acc.rates, float64(tx)/wall.Seconds())
			acc.tx += tx
			acc.wall += wall
			out.measuredTx += tx
			out.failed += failed
			out.attempted += tx + failed
		}
		after := readProcess()
		acc.mallocs += after.mallocs - pc.mallocs
		acc.bytes += after.bytes - pc.bytes
		acc.cpu += after.cpu - pc.cpu
	}
	cs.stop()

	out.measured = statsDelta(threadStats(ths), before)
	for _, th := range ths {
		th.Close()
	}
	out.clientLife = sys.Stats()
	if err := sys.Close(); err != nil {
		return fail(err)
	}
	out.life = sys.Stats()
	if traced && remote {
		out.server = map[string]float64{}
		for _, ph := range sys.LatencyReport().Server {
			out.server[ph.Phase] = ph.MeanNs
		}
	}
	out.attempted++
	if err := inst.check(); err != nil {
		return fail(err)
	}
	return out
}

// statsDelta returns the counters of a − b that the benchmark reports.
func statsDelta(a, b stm.Stats) stm.Stats {
	return stm.Stats{
		Commits:       a.Commits - b.Commits,
		Aborts:        a.Aborts - b.Aborts,
		ReadOnly:      a.ReadOnly - b.ReadOnly,
		Reads:         a.Reads - b.Reads,
		Writes:        a.Writes - b.Writes,
		ValidationOps: a.ValidationOps - b.ValidationOps,
	}
}

// result is everything one workload's cells measured, per engine.
type result struct {
	w          workload
	ref        *hostRef        // one reference slice before every cell
	series     []*series       // indexed like engines
	roundSetup []time.Duration // per round, summed over the engines
	last       []cellOut       // each engine's most recent cell
	attempted  uint64
	failed     uint64
	errs       []error
}

func (r *result) addCell(e int, out cellOut) {
	r.last[e] = out
	r.attempted += out.attempted
	r.failed += out.failed
	if out.err != nil {
		r.errs = append(r.errs, out.err)
	}
}

// runUntraced runs the untraced cells of the given workloads. The schedule is
// round-major with the engine order rotated each round, so that each metric's
// slices are spread over the whole invocation — the host's throughput drifts
// by ±10 % over tens of seconds — and only one System is alive at a time. A
// host-reference slice before every cell measures the slower drift that
// averaging within one invocation cannot remove (hostref.go).
func runUntraced(ws []workload, p plan, seed uint64) []*result {
	results := make([]*result, len(ws))
	for i, w := range ws {
		r := &result{w: w, ref: newHostRef(w.clients), roundSetup: make([]time.Duration, p.rounds), last: make([]cellOut, len(engines))}
		for range engines {
			r.series = append(r.series, newSeries(w, p))
		}
		results[i] = r
	}
	for round := 0; round < p.rounds; round++ {
		for _, r := range results {
			for k := range engines {
				e := (k + round) % len(engines)
				r.ref.slice(p.slice)
				out := runCell(r.w, engines[e], round, seed, p, false, r.series[e])
				r.roundSetup[round] += out.setup
				r.addCell(e, out)
			}
		}
	}
	return results
}
