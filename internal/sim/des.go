package sim

import (
	"container/heap"
	"fmt"
)

// phase identifies what a thread does next.
type phase int

const (
	phBegin  phase = iota // start non-transactional work
	phReads               // execute the read phase
	phCommit              // execute the commit protocol
)

// event is one scheduler entry: thread th becomes runnable at time t.
type event struct {
	t   uint64
	th  int
	seq uint64 // FIFO tie-break for determinism
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// interval is a half-open busy window [start, end).
type interval struct{ start, end uint64 }

// thread is one simulated application thread.
type thread struct {
	phase     phase
	readOnly  bool   // this transaction's kind
	txStart   uint64 // when the current attempt's read phase began
	doomedAt  uint64 // 0 = not doomed; else the dooming commit's time
	running   bool   // a transaction attempt is in flight
	snapCount uint64 // NOrec: commit count at last validation
	backoff   uint64 // current abort backoff (cycles)

	commits, aborts                        uint64
	readCyc, commitCyc, abortCyc, otherCyc uint64
}

// des is the simulation state.
type des struct {
	p Params
	w Workload
	c Config

	heap    eventHeap
	seq     uint64
	thr     []thread
	rng     uint64
	oversub float64 // threads per core beyond 1.0 stretch compute costs

	// Global engine state.
	commitCount uint64     // sequence-lock version / 2
	lockFreeAt  uint64     // when the global lock (or commit-server) frees
	writebacks  []interval // recent write-back windows (readers stall)
	commitWaits []interval // recent commit-wait windows (spinner count)
	invalDoneAt []uint64   // per invalidation-server completion time
	shardFreeAt []uint64   // per commit-stream server availability (RInval)
}

// Run executes one simulation.
func Run(p Params, w Workload, c Config) (Result, error) {
	if c.Threads < 1 {
		return Result{}, fmt.Errorf("sim: threads %d < 1", c.Threads)
	}
	if c.Cores < 2 {
		return Result{}, fmt.Errorf("sim: cores %d < 2", c.Cores)
	}
	if c.InvalServers < 1 {
		c.InvalServers = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.InvalServers < c.Shards {
		c.InvalServers = c.Shards // at least one invalidation-server per stream
	}
	d := &des{
		p:           p,
		w:           w,
		c:           c,
		thr:         make([]thread, c.Threads),
		rng:         c.Seed*0x9e3779b97f4a7c15 + 0xdeadbeef,
		invalDoneAt: make([]uint64, c.InvalServers),
		shardFreeAt: make([]uint64, c.Shards),
	}
	// Server engines dedicate cores; application threads share the rest.
	appCores := c.Cores
	switch c.Engine {
	case RInvalV1:
		appCores -= c.Shards
	case RInvalV2, RInvalV3:
		appCores -= c.Shards + c.InvalServers
	}
	if appCores < 1 {
		appCores = 1
	}
	if c.Threads > appCores {
		d.oversub = float64(c.Threads) / float64(appCores)
	} else {
		d.oversub = 1
	}

	for i := range d.thr {
		d.schedule(uint64(i)%97, i) // stagger starts deterministically
	}
	for len(d.heap) > 0 {
		ev := heap.Pop(&d.heap).(event)
		if ev.t >= c.Duration {
			continue // drain without scheduling successors
		}
		d.step(ev.t, ev.th)
	}

	res := Result{Engine: c.Engine, Threads: c.Threads, Cycles: c.Duration}
	for i := range d.thr {
		t := &d.thr[i]
		res.Commits += t.commits
		res.Aborts += t.aborts
		res.ReadCycles += t.readCyc
		res.CommitCycles += t.commitCyc
		res.AbortCycles += t.abortCyc
		res.OtherCycles += t.otherCyc
	}
	return res, nil
}

// MustRun is Run for static configurations; it panics on error.
func MustRun(p Params, w Workload, c Config) Result {
	r, err := Run(p, w, c)
	if err != nil {
		panic(err)
	}
	return r
}

func (d *des) schedule(t uint64, th int) {
	d.seq++
	heap.Push(&d.heap, event{t: t, th: th, seq: d.seq})
}

// rand returns the next deterministic pseudo-random 64-bit value.
func (d *des) rand() uint64 {
	d.rng += 0x9e3779b97f4a7c15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (d *des) bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(d.rand()>>11)/(1<<53) < p
}

// stretch scales compute-bound cycles by the oversubscription factor:
// threads beyond the available cores timeshare.
func (d *des) stretch(cyc uint64) uint64 {
	if d.oversub <= 1 {
		return cyc
	}
	return uint64(float64(cyc) * d.oversub)
}

// step runs one phase of one thread at time now.
func (d *des) step(now uint64, ti int) {
	t := &d.thr[ti]
	switch t.phase {
	case phBegin:
		dur := d.stretch(d.w.NonTxWork)
		t.otherCyc += dur
		t.readOnly = d.bernoulli(d.w.ReadOnlyFrac)
		t.doomedAt = 0
		t.running = true
		t.txStart = now + dur
		t.snapCount = d.commitCount
		t.phase = phReads
		d.schedule(now+dur, ti)

	case phReads:
		end, readCyc, otherCyc := d.readPhase(now, t)
		t.readCyc += readCyc
		t.otherCyc += otherCyc
		t.phase = phCommit
		d.schedule(end, ti)

	case phCommit:
		d.commitPhase(now, ti)
	}
}

// readPhase computes the duration and cost split of a transaction's reads
// plus in-transaction compute. Under the Mutex engine the entire body runs
// inside the critical section, so the read phase is deferred to commitMutex.
func (d *des) readPhase(now uint64, t *thread) (end, readCyc, otherCyc uint64) {
	if d.c.Engine == Mutex {
		return now, 0, 0
	}
	reads := d.w.Reads
	per := d.stretch(d.w.PerReadWork)
	cur := now
	for i := 0; i < reads; i++ {
		otherCyc += per
		cur += per
		rc := d.readCost(cur, t)
		readCyc += rc
		cur += rc
	}
	tc := d.stretch(d.w.TxCompute)
	otherCyc += tc
	cur += tc
	return cur, readCyc, otherCyc
}

// readCost models one transactional load at time `cur`.
func (d *des) readCost(cur uint64, t *thread) uint64 {
	if d.c.Versions > 0 && t.readOnly && d.c.Engine != Mutex && d.c.Engine != TL2 {
		// Multi-version snapshot read: resolve against the captured epoch
		// vector — head load plus the occasional ring scan, no bloom-filter
		// publish, no write-back stall, no server wait.
		return 2 * d.p.CacheHit
	}
	var c uint64
	switch d.c.Engine {
	case Mutex:
		// Reads inside the exclusive section: plain loads.
		return d.p.CacheHit
	case NOrec:
		c = d.p.CacheHit // value load
		if d.commitCountAt(cur) != t.snapCount {
			// Timestamp moved: full read-set revalidation. The validation
			// spins for an even timestamp first (readers stall behind any
			// in-flight write-back), then re-checks the prefix read so far
			// (reads/2 on average) — the quadratic incremental-validation
			// term.
			c += d.writebackStall(cur)
			c += uint64(d.w.Reads/2)*d.p.CacheHit + 2*d.p.CacheMiss
			t.snapCount = d.commitCountAt(cur)
		}
	case TL2:
		// Lock-word sample, value load, lock-word re-sample: all
		// per-location, no global state touched.
		c = 3 * d.p.CacheHit
	case InvalSTM, RInvalV1, RInvalV2, RInvalV3:
		// Wait out any write-back in progress.
		c = d.writebackStall(cur)
		// V2/V3 readers additionally wait for their invalidation-server.
		if d.c.Engine == RInvalV2 || d.c.Engine == RInvalV3 {
			if idone := d.invalDoneAt[0]; idone > cur+c {
				// Approximate "my server caught up" by server 0's horizon;
				// servers advance together since partitions are balanced.
				c += min(idone-(cur+c), d.p.CacheMiss*4)
			}
		}
		c += d.p.CacheHit + d.p.BFAdd + d.p.CacheHit // load + BF publish + status
	}
	return c
}

// commitCountAt returns how many commits completed by time x.
func (d *des) commitCountAt(x uint64) uint64 {
	// Commits are appended with their completion times in d.writebacks;
	// commitCount counts completions whose end <= x is approximated by the
	// global counter (events are processed in time order, so the counter is
	// exact up to phase granularity).
	_ = x
	return d.commitCount
}

// writebackStall returns how long a reader at time x waits for an in-flight
// write-back window.
func (d *des) writebackStall(x uint64) uint64 {
	for i := len(d.writebacks) - 1; i >= 0; i-- {
		wb := d.writebacks[i]
		if x >= wb.start && x < wb.end {
			return wb.end - x
		}
		if wb.end < x {
			break
		}
	}
	return 0
}

// spinnersAt counts threads whose commit-wait window covers time x.
func (d *des) spinnersAt(x uint64) uint64 {
	var n uint64
	for i := len(d.commitWaits) - 1; i >= 0; i-- {
		cw := d.commitWaits[i]
		if x >= cw.start && x < cw.end {
			n++
		}
		if cw.end+1_000_000 < x {
			break
		}
	}
	return n
}

func (d *des) pruneWindows() {
	const keep = 512
	if len(d.writebacks) > keep {
		d.writebacks = append(d.writebacks[:0], d.writebacks[len(d.writebacks)-keep/2:]...)
	}
	if len(d.commitWaits) > keep {
		d.commitWaits = append(d.commitWaits[:0], d.commitWaits[len(d.commitWaits)-keep/2:]...)
	}
}

// commitPhase executes the engine's commit protocol for thread ti at `now`.
func (d *des) commitPhase(now uint64, ti int) {
	t := &d.thr[ti]

	// Doomed transactions abort at the commit point (the read-phase doom
	// check — invalidation status flag, or NOrec's failing revalidation —
	// is folded here at phase granularity). Mutex never conflicts.
	if t.doomedAt != 0 && t.doomedAt <= now && d.c.Engine != Mutex {
		d.abort(now, ti, 0)
		return
	}
	switch d.c.Engine {
	case Mutex:
		d.commitMutex(now, ti)
	case NOrec:
		d.commitNOrec(now, ti)
	case InvalSTM:
		d.commitInval(now, ti)
	case RInvalV1, RInvalV2, RInvalV3:
		d.commitRemote(now, ti)
	case TL2:
		d.commitTL2(now, ti)
	}
	d.pruneWindows()
}

// abort records an abort and schedules the retry after backoff.
func (d *des) abort(now uint64, ti int, extra uint64) {
	t := &d.thr[ti]
	t.aborts++
	t.running = false
	if t.backoff == 0 {
		t.backoff = 256
	} else if t.backoff < 64_000 {
		t.backoff *= 2
	}
	bo := t.backoff/2 + d.rand()%t.backoff
	t.abortCyc += bo + extra
	// Retry: skip the non-tx phase (the paper's critical path re-executes
	// the transaction body only).
	t.doomedAt = 0
	t.readOnly = d.bernoulli(d.w.ReadOnlyFrac)
	t.running = true
	t.txStart = now + extra + bo
	t.snapCount = d.commitCount
	t.phase = phReads
	d.schedule(now+extra+bo, ti)
}

// finishCommit logs a successful commit and its side effects.
func (d *des) finishCommit(ti int, commitEnd uint64, falseBloom bool) {
	t := &d.thr[ti]
	t.commits++
	t.running = false
	t.backoff = 0
	if !t.readOnly {
		// Only writers advance the global timestamp (read-only commits do
		// not serialize) and doom concurrently running transactions.
		d.commitCount++
		pc := d.w.PConflict
		if falseBloom {
			pc += d.w.PFalseBloom
		}
		for j := range d.thr {
			o := &d.thr[j]
			if j == ti || !o.running || o.doomedAt != 0 {
				continue
			}
			if d.c.Versions > 0 && o.readOnly {
				// Snapshot readers never appear in the invalidation scan:
				// abort-free by construction (and free for the committer).
				continue
			}
			if d.bernoulli(pc) {
				o.doomedAt = commitEnd
			}
		}
	}
	t.phase = phBegin
	d.schedule(commitEnd, ti)
}

// commitMutex models the coarse-lock baseline: the whole transaction body —
// reads, in-transaction compute, writes — runs inside the exclusive section,
// so concurrency exists only in the non-transactional gaps (Figure 1(b)).
func (d *des) commitMutex(now uint64, ti int) {
	t := &d.thr[ti]
	start := max(now, d.lockFreeAt)
	handoff := d.p.CAS + d.p.CacheMiss + d.p.HandoffPerSpinner*d.spinnersAt(now)
	per := d.stretch(d.w.PerReadWork)
	readWork := uint64(d.w.Reads) * per
	readMem := uint64(d.w.Reads) * d.p.CacheHit
	body := readWork + readMem + d.stretch(d.w.TxCompute) + uint64(d.w.Writes)*d.p.CacheHit
	end := start + handoff + body
	d.commitWaits = append(d.commitWaits, interval{now, start})
	d.lockFreeAt = end
	t.readCyc += readMem
	t.otherCyc += readWork + d.stretch(d.w.TxCompute)
	t.commitCyc += (start - now) + handoff + uint64(d.w.Writes)*d.p.CacheHit
	d.finishCommit(ti, end, false)
}

// commitNOrec: CAS-acquire the sequence lock (retrying costs a
// revalidation), write back, release. Lock handoff pays the spinner
// broadcast; the holder may suffer OS jitter, stalling everyone.
func (d *des) commitNOrec(now uint64, ti int) {
	t := &d.thr[ti]
	if t.readOnly {
		t.commitCyc += d.p.CacheHit
		d.finishCommit(ti, now+d.p.CacheHit, false)
		return
	}
	// Commit-time validation if anything committed since our last check
	// (the CAS-from-snapshot failed path).
	var val uint64
	if d.commitCount != t.snapCount {
		val = uint64(d.w.Reads) * d.p.CacheHit
	}
	start := max(now+val, d.lockFreeAt)
	handoff := d.p.CAS + d.p.CacheMiss + d.p.HandoffPerSpinner*d.spinnersAt(now)
	wb := uint64(d.w.Writes) * d.p.CacheMiss
	var jitter uint64
	if d.bernoulli(d.p.JitterProb) {
		jitter = d.p.JitterCycles // descheduled while holding the lock
	}
	end := start + handoff + wb + jitter
	d.commitWaits = append(d.commitWaits, interval{now, start})
	d.writebacks = append(d.writebacks, interval{start + handoff, end})
	d.lockFreeAt = end
	t.commitCyc += end - now
	d.finishCommit(ti, end, false)
}

// commitInval: like NOrec's acquisition, but the invalidation scan of every
// in-flight transaction runs inside the critical section (Algorithm 1), so
// lock hold time grows with the thread count.
func (d *des) commitInval(now uint64, ti int) {
	t := &d.thr[ti]
	if t.readOnly {
		t.commitCyc += d.p.CacheHit
		d.finishCommit(ti, now+d.p.CacheHit, false)
		return
	}
	start := max(now, d.lockFreeAt)
	handoff := d.p.CAS + d.p.CacheMiss + d.p.HandoffPerSpinner*d.spinnersAt(now)
	scan := uint64(d.c.Threads) * d.p.BFCheck
	wb := uint64(d.w.Writes) * d.p.CacheMiss
	var jitter uint64
	if d.bernoulli(d.p.JitterProb) {
		jitter = d.p.JitterCycles
	}
	end := start + handoff + scan + wb + jitter
	d.commitWaits = append(d.commitWaits, interval{now, start})
	d.writebacks = append(d.writebacks, interval{start + handoff + scan, end})
	d.lockFreeAt = end
	t.commitCyc += end - now
	d.finishCommit(ti, end, true)
}

// commitTL2 models the fine-grained baseline: one CAS (plus a line
// transfer) per written location, a read-set validation pass, write-back,
// and per-location unlocks — all without any global serialization point, so
// disjoint commits overlap perfectly. The price is CAS/coherence traffic
// proportional to the write set and full-read-set validation at commit.
func (d *des) commitTL2(now uint64, ti int) {
	t := &d.thr[ti]
	if t.readOnly {
		// Read-only TL2 commits are free (reads were validated in place).
		t.commitCyc += d.p.CacheHit
		d.finishCommit(ti, now+d.p.CacheHit, false)
		return
	}
	locks := uint64(d.w.Writes) * (d.p.CAS + d.p.CacheMiss)
	validate := uint64(d.w.Reads) * d.p.CacheHit
	wb := uint64(d.w.Writes) * (d.p.CacheMiss + d.p.CacheHit) // data + unlock
	end := now + locks + validate + wb
	t.commitCyc += end - now
	d.finishCommit(ti, end, false) // advances the clock for writers
}

// commitRemote: the client publishes a cache-aligned request (no CAS, no
// shared spinning) and the commit-server pipeline executes it. V1 runs the
// invalidation scan serially on the server; V2/V3 run it on parallel
// invalidation servers overlapping the write-back; V3 additionally lets the
// server start the next commit before slow invalidators finish.
func (d *des) commitRemote(now uint64, ti int) {
	t := &d.thr[ti]
	if t.readOnly {
		t.commitCyc += d.p.CacheHit
		d.finishCommit(ti, now+d.p.CacheHit, false)
		return
	}
	// Vars hash uniformly across the commit streams, so each single-shard
	// request homes on one of Shards independent server pipelines; a
	// cross-shard request touches a second stream and goes through the
	// two-phase handshake (lock both streams in index order, drain, one
	// combined epoch occupying both pipelines).
	S := len(d.shardFreeAt)
	home := 0
	if S > 1 {
		home = int(d.rand() % uint64(S))
	}
	cross := S > 1 && d.bernoulli(d.w.CrossShardFrac)
	second := home
	if cross {
		second = (home + 1) % S
	}

	arrive := now + d.p.CacheMiss // request line transfer to the server
	start := max(arrive, d.shardFreeAt[home])
	if cross {
		// The leading server waits for every touched pipeline to go idle
		// (stream locks acquire in index order) and pays one CAS per lock.
		start = max(start, d.shardFreeAt[second]) + 2*d.p.CAS
	}

	status := d.p.CacheMiss // server reads the client's status line
	wb := uint64(d.w.Writes) * d.p.CacheMiss
	var commitDone uint64
	switch d.c.Engine {
	case RInvalV1:
		// Every stream's server scans the full slot array (the invalidation
		// scan is over in-flight transactions, not shard-local state); the
		// win is that the S scans run on S dedicated cores in parallel.
		scan := uint64(d.c.Threads) * d.p.ServerBFCheck
		commitDone = start + status + scan + wb
		d.writebacks = append(d.writebacks, interval{start + status + scan, commitDone})
		d.shardFreeAt[home] = commitDone
		if cross {
			d.shardFreeAt[second] = commitDone
		}
		for k := range d.invalDoneAt {
			d.invalDoneAt[k] = commitDone
		}
	case RInvalV2, RInvalV3:
		// InvalServers is the total across streams: each stream owns
		// InvalServers/Shards of them, and each scans its slot partition.
		perShard := d.c.InvalServers / S
		if perShard < 1 {
			perShard = 1
		}
		part := (d.c.Threads + perShard - 1) / perShard
		scan := d.p.CacheMiss + uint64(part)*d.p.ServerBFCheck // fetch signature + scan partition
		if cross {
			// The handshake drains every touched stream's invalidation
			// horizon before the ALIVE check (ring slots must be consumed).
			for _, idone := range d.invalDoneAt {
				if idone > start {
					start = idone
				}
			}
			// Publishing the combined descriptor into the second stream's
			// ring costs one extra line transfer.
			status += d.p.CacheMiss
		}
		commitDone = start + status + wb
		invalDone := start + status + scan
		// One server may be stalled by OS noise (paging, interrupts).
		var lagged uint64
		if d.bernoulli(d.p.InvalLagProb) {
			lagged = invalDone + d.p.InvalLagCycles
		}
		d.writebacks = append(d.writebacks, interval{start + status, commitDone})
		for j := range d.invalDoneAt {
			d.invalDoneAt[j] = invalDone
		}
		if lagged > 0 {
			d.invalDoneAt[0] = lagged
		}
		var freeAt uint64
		if d.c.Engine == RInvalV2 {
			// Next commit waits for both write-back and all invalidators,
			// including a lagged one (Algorithm 3 line 7).
			freeAt = max(commitDone, invalDone, lagged)
		} else {
			// V3: the server runs ahead of slow invalidators as long as no
			// server trails by more than StepsAhead commits (Algorithm 4
			// line 5). A lag longer than the window still blocks, pro-rated
			// by the window size.
			window := uint64(d.c.StepsAhead) * (status + wb)
			freeAt = commitDone
			if lagged > commitDone+window {
				freeAt = lagged - window
			}
		}
		d.shardFreeAt[home] = freeAt
		if cross {
			// A handshake epoch holds the second stream locked until the
			// combined write-back completes.
			d.shardFreeAt[second] = max(d.shardFreeAt[second], commitDone)
		}
	}
	reply := commitDone + d.p.CacheMiss // reply line transfer back
	t.commitCyc += reply - now
	d.finishCommit(ti, reply, true)
}
