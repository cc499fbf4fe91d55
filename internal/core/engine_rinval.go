package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/histo"
	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/internal/padded"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// remoteEngine implements the three Remote Invalidation variants (the
// paper's Algorithms 2-4) where their servers get a P (below four Ps the
// System commits through invalEngine), behind one value, sys.nInvalPerShard:
//
//   - nInvalPerShard == 0: RInval-V1. The epoch driver executes both the
//     invalidation scan and the write-back itself. A client answered within
//     its busy phase never touches the global timestamp: it publishes a
//     request in its padded slot and spins on its own cache line, so commit
//     has zero CAS operations and no shared-lock spinning.
//   - nInvalPerShard > 0, stepsAhead == 0: RInval-V2. Invalidation is
//     partitioned across nInvalPerShard invalidation-server goroutines that
//     run in parallel with the commit-server's write-back. The commit-server
//     waits for every invalidation-server to catch up before starting the
//     next commit.
//   - nInvalPerShard > 0, stepsAhead > 0: RInval-V3. The commit-server may
//     run up to stepsAhead commits past the slowest invalidation-server,
//     provided the *requester's own* invalidation-server is fully caught up
//     (which makes the pre-commit status check conclusive). In-flight commit
//     descriptors live in a ring of stepsAhead+1 padded pointers.
//
// The engine runs one shardServer — a commit-server plus its share of
// invalidation-servers — per commit stream, and every request carries its
// touched-stream mask (read shards ∪ write shards; bit 0 alone when Shards ==
// 1, the paper-exact baseline). All of them are retired by the same epoch
// routine (shardServer.epoch, DESIGN.md §11) over that mask: a single-bit mask
// is served on its stream independently of every other, batched with
// compatible requests of the same stream; a wider one is led solo by the
// server of its lowest touched stream, holding every touched stream.
//
// An epoch is driven by whoever holds its streams' locks. Normally that is the
// leading commit-server; a waiting client may take its single stream's free
// lock once its busy-wait budget ran out without a reply and run the epoch for
// its own request itself (help, DESIGN.md §16), which keeps commit latency at
// the cost of the work rather than of the hand-off when the server is
// descheduled. The same rule holds one tier down: partition k of a stream is
// scanned by whoever holds its try-lock — invalidation-server k, or an epoch
// driver that found it lagging and free (scanPartition) — so a partition lags
// only while somebody is scanning it.
type remoteEngine struct {
	invalEngine     // begin and abort
	stepsAhead  int // 0 unless V3 with partitions
	maxBatch    int

	// srv[j] is shard j's server set. Exactly one entry when Shards == 1.
	srv []*shardServer
}

// shardServer is one commit stream's server set: the commit-server loop, its
// group-commit scratch, the stream's invalidation-server loops, and their
// stats. The epoch scratch and records (sigBufs/memberBufs, the batch*
// fields, epochBuf, attrEpochs, commitRing, latC and the three histograms)
// belong to whoever holds this stream's lock — the shard's commit-server, a
// multi-stream leader, or a helping client — and must only be written with it
// held. One tier down the rule is the same: invalRings[k] and invalLat[k]
// belong to whoever holds partition k's lock (tryLockPartition) — in practice
// invalidation-server k, which records on them only inside scanPartition.
// scanBuf stays private to the commit-server goroutine's outer scan; invalSrv
// is atomic adds from any scanner.
type shardServer struct {
	eng   *remoteEngine
	sys   *System
	shard int
	st    *commitStream

	// descBufs[i] is ring slot i's descriptor with its own stable
	// write-signature and member-mask buffers. publish copies the batch's
	// merged write filter and members here and stores the descriptor's address
	// in the ring: a client regains ownership of its write set (and clears its
	// filter) as soon as it sees the COMMITTED reply, which can happen while
	// the partitions are still being scanned. The ring's overwrite bound (no
	// partition trails by more than stepsAhead commits, proved by the epoch's
	// catch-up stage) guarantees a descriptor is never refilled while a scan
	// still reads it.
	descBufs []commitDesc

	// Group-commit scratch, owned by the stream-lock holder: the batch
	// member slots, the union of their write signatures, the union of their
	// read signatures (for the R/W compatibility test), and the member mask
	// RInvalV1 passes to its inline invalidation scan. The unions and the
	// mask are built for two members or more; a lone member's own serve.
	batchIdx  []int
	batchWS   *bloom.Filter
	batchRS   *bloom.Filter
	batchMask slotMask

	// scanBuf/epochBuf hold the candidate slots of the outer request scan
	// (commit-server goroutine only) and of one epoch's collection pass
	// (lock holder) — the active bitmap's word-decoded indices. Reused.
	scanBuf  []int
	epochBuf []int

	commitSrv Stats   // epoch drivers' Invalidations and CrossShardCommits (atomic adds)
	invalSrv  []Stats // per-invalidation-server counters (atomic adds)

	// One sample per epoch, recorded by the lock holder and snapshotted by
	// anyone (stats): pending requests the collection saw, V3's step-ahead
	// occupancy, and the batch size. Each is one atomic add per sample; the
	// stream's Epochs and Commits are the batch sizes' count and sum.
	queueDepth, stepAhead, batchSizes histo.Exact

	// attrEpochs counts served epochs for attribution's 1-in-N exact-sample
	// selection (lock-holder-owned; see epochKillDesc).
	attrEpochs uint64

	// commitRing/invalRings are the servers' trace tracks (nil entries when
	// tracing is off; every recording call on them is then a no-op).
	commitRing *obs.Ring
	invalRings []*obs.Ring

	// latC/invalLat are the servers' latency-phase cells (nil when
	// Config.Latency is off; recording on a nil cell is a no-op). Every epoch
	// is recorded, whoever drives it — only client cells sample.
	latC     *obs.LatCell
	invalLat []*obs.LatCell
}

// coolServers reports whether RInval's servers would share the clients' Ps: a
// client, the commit-server and two invalidation-servers need four. New reads
// it once, for partitionsPerStream and System.clientsCommit (DESIGN.md §3).
func coolServers() bool { return runtime.GOMAXPROCS(0) < 4 }

// partitionsPerStream is the RInval layout's one value: the partitions per
// stream that have a scanner of their own, InvalServers/Shards for V2/V3 where
// their servers get a P, else 0. A partition pays off only if it is scanned in
// parallel with the write-back, so with 0 V2/V3 run V1's inline doom (DESIGN.md
// §3). Every stage and every per-partition array read only this value.
func partitionsPerStream(cfg Config, cool bool) int {
	if cool || (cfg.Algo != RInvalV2 && cfg.Algo != RInvalV3) {
		return 0
	}
	return cfg.InvalServers / cfg.Shards
}

// newRemoteEngine builds the engine. V3's stepsAhead needs partitions, and
// only partitions read descriptors: each stream's ring and descBufs get
// stepsAhead+1 entries where it has them, none otherwise.
func newRemoteEngine(sys *System) *remoteEngine {
	perShard := sys.nInvalPerShard
	stepsAhead, ring := 0, 0
	if perShard > 0 {
		if sys.cfg.Algo == RInvalV3 {
			stepsAhead = sys.cfg.StepsAhead
		}
		ring = stepsAhead + 1
	}
	e := &remoteEngine{
		invalEngine: invalEngine{sys: sys},
		stepsAhead:  stepsAhead,
		maxBatch:    sys.cfg.MaxBatch,
	}
	for j := range sys.streams {
		sys.streams[j].ring = make([]padded.Pointer[commitDesc], ring)
		sv := &shardServer{
			eng:       e,
			sys:       sys,
			shard:     j,
			st:        &sys.streams[j],
			invalSrv:  make([]Stats, perShard),
			descBufs:  make([]commitDesc, ring),
			batchIdx:  make([]int, 0, sys.cfg.MaxThreads),
			batchWS:   bloom.NewFilter(sys.cfg.Bloom),
			batchRS:   bloom.NewFilter(sys.cfg.Bloom),
			batchMask: newSlotMask(sys.cfg.MaxThreads),
			scanBuf:   make([]int, 0, sys.cfg.MaxThreads),
			epochBuf:  make([]int, 0, sys.cfg.MaxThreads),
			// Bounds: a collection sees at most every slot and admits at
			// most min(MaxBatch, MaxThreads); V3's catch-up keeps a partition
			// within stepsAhead commits before each epoch's publish, which the
			// next epoch samples one commit later.
			queueDepth: histo.NewExact(sys.cfg.MaxThreads),
			batchSizes: histo.NewExact(min(sys.cfg.MaxBatch, sys.cfg.MaxThreads)),
			stepAhead:  histo.NewExact(stepsAhead + 1),
		}
		for i := range sv.descBufs {
			sv.descBufs[i] = commitDesc{bf: bloom.NewFilter(sys.cfg.Bloom), members: newSlotMask(sys.cfg.MaxThreads)}
		}
		sv.latC = sys.lat.Server(j)
		sv.invalLat = make([]*obs.LatCell, perShard)
		for k := range sv.invalLat {
			sv.invalLat[k] = sys.lat.Server(len(sys.streams) + j*sys.nInvalPerShard + k)
		}
		sv.invalRings = make([]*obs.Ring, perShard)
		if sys.tracer != nil {
			sv.commitRing = sys.tracer.AddActor(sys.serverName("commit-server", j))
			for k := range sv.invalRings {
				sv.invalRings[k] = sys.tracer.AddActor(sys.serverName(fmt.Sprintf("inval-server-%d", k), j))
			}
		}
		e.srv = append(e.srv, sv)
	}
	return e
}

// serverName qualifies a server-task label with its shard when sharding is
// on; the single-stream names match the paper (and the seed) exactly.
func (s *System) serverName(base string, shard int) string {
	if len(s.streams) == 1 {
		return base
	}
	return fmt.Sprintf("shard%d-%s", shard, base)
}

// commit is the client side of Algorithm 2's CLIENT COMMIT, identical for all
// three variants: publish the request on the slot, then spin on the private
// reply word until an epoch driver answers. The request is the transaction's
// stream masks, computed here from the write set and the shards its reads
// visited (both bit 0 when Shards == 1); the server of the lowest touched
// stream owns it. Every wait iteration after the busy phase has run out, by
// when a server with a core of its own would have replied, first offers to
// drive the epoch itself (help); an iteration that could not help waits.
//
//stm:hotpath
func (e *remoteEngine) commit(tx *Tx) bool {
	if tx.ws.len() == 0 {
		return true
	}
	writes := tx.ws.shards(e.sys.shardMask)
	touched := writes | tx.readShards
	tx.ring.Instant(obs.KCommitReq, 0)
	if tx.invalidated() {
		tx.reason = AbortInvalidated
		return false
	}
	sl := tx.slot
	pending := sl.publish(writes, touched)
	var w spin.Waiter
	for {
		if reply := sl.state.Load(); reply != pending {
			sl.state.Store(pending &^ reqCodeMask) // consumed: idle
			committed := reply&reqCodeMask == reqCommitted
			if !committed {
				tx.reason = AbortInvalidated
			}
			return committed
		}
		if !w.Busy() && e.help(tx, touched) {
			continue // replied to: re-read our own line
		}
		w.Wait()
	}
}

// help lets a client waiting on a published request, its busy phase spent
// without a reply, drive the epoch for it: if the request is single-stream and
// the home stream's lock is free at this moment, take it, run the same epoch
// the commit-server runs — starting at the client's own slot, so compatible
// requests above it ride along — and release. It reports whether the call
// sent any reply. The lock holder is the single answerer: the collection pass
// re-reads every candidate's state under the lock, so a request the server
// answered just before the CAS is skipped. A busy lock means someone is
// already driving an epoch here (in the paper's regime the commit-server, for
// the whole epoch), and V3 declines inside the epoch while the client's
// partition is still being scanned; both fall back to waiting. Cross-shard
// requests stay with their leader server: a helper would have to try-lock
// several streams and back out of a partial set.
//
//stm:hotpath
func (e *remoteEngine) help(tx *Tx, touched uint64) bool {
	if touched&(touched-1) != 0 {
		return false
	}
	sv := e.srv[bits.TrailingZeros64(touched)]
	if !e.sys.tryLockStream(sv.shard) {
		return false
	}
	clk := startClock(sv.latC, sv.commitRing)
	committed, replied := sv.epoch(touched, tx.th.idx, &clk)
	e.sys.unlockStream(sv.shard)
	if committed > 0 {
		atomic.AddUint64(&tx.stats.HelpedEpochs, 1)
	}
	return replied
}

// serverTasks is the goroutine bodies System.startServers runs, none below
// four Ps: one commit-server per stream, plus one invalidation-server per
// partition of the stream. Each body polls its stop predicate; the name labels
// the goroutine in pprof profiles and traces.
func (e *remoteEngine) serverTasks() []serverTask {
	var tasks []serverTask
	for j := 0; !e.sys.clientsCommit && j < len(e.srv); j++ {
		sv := e.srv[j]
		tasks = append(tasks, serverTask{
			name: e.sys.serverName("commit-server", j),
			run:  sv.commitServerMain,
		})
		for k := 0; k < e.sys.nInvalPerShard; k++ {
			tasks = append(tasks, serverTask{
				name: e.sys.serverName(fmt.Sprintf("inval-server-%d", k), j),
				run:  func(stop func() bool) { sv.invalServerMain(k, stop) },
			})
		}
	}
	return tasks
}

// serverStats folds every stream's server activity (shardServer.stats); safe
// while the servers run.
func (e *remoteEngine) serverStats() Stats {
	var agg Stats
	for _, sv := range e.srv {
		agg.Add(sv.stats())
	}
	return agg
}

// stats folds this stream's server activity — its epoch drivers' counters and
// per-epoch histograms, and its invalidation-servers' counters — into one
// Stats. Safe while the servers run: counters are loaded atomically and the
// histograms snapshotted. Epochs and Commits are the batch-size histogram's
// sample count and total: one sample per committing epoch, of its batch size.
func (sv *shardServer) stats() Stats {
	st := sv.commitSrv.snapshotAtomic()
	for k := range sv.invalSrv {
		st.Add(sv.invalSrv[k].snapshotAtomic())
	}
	st.BatchSizes = sv.batchSizes.Snapshot()
	st.Server.QueueDepth = sv.queueDepth.Snapshot()
	inline := sv.st.epochs.Load()
	st.BatchSizes.RecordN(1, inline)
	st.Server.QueueDepth.RecordN(1, inline)
	st.CrossShardCommits += sv.st.crossShard.Load()
	st.Epochs, st.Commits = st.BatchSizes.Count(), st.BatchSizes.Sum()
	st.Server.StepAhead = sv.stepAhead.Snapshot()
	return st
}

// commitServerMain is Algorithm 2/3/4's COMMIT-SERVER LOOP: scan the
// requests array for PENDING entries and execute them, batching compatible
// requests into one group-commit epoch. The scan order gives a round-robin
// fairness guarantee: a pending request is served within one pass over the
// array (V3 may defer a request whose invalidation-server lags, but that
// server's catch-up is itself bounded by the ring; a request left out of a
// batch for incompatibility stays PENDING and leads its own epoch when the
// scan reaches it). Each server claims the requests whose lowest touched
// stream is its own — single-stream requests of its stream, and the
// cross-shard requests it leads — so a request still has exactly one server;
// a single-stream request may instead be answered by a helping client, and
// the stream lock decides which of the two does. After any epoch it served
// the server goes back to busy polling; it backs off only while it finds
// nothing to serve.
//
//stm:hotpath
func (sv *shardServer) commitServerMain(stop func() bool) {
	sys := sv.sys
	var w spin.Waiter
	for !stop() {
		hot := false
		// Candidates come from the active bitmap: a PENDING requester is
		// ALIVE for its whole wait, so its bit is set, and the per-candidate
		// state check below filters the (routine) stale bits. A request
		// published after the bitmap snapshot is picked up on the next pass.
		sv.scanBuf = sys.appendPendingCandidates(sv.scanBuf[:0], 0)
		for _, i := range sv.scanBuf {
			sl := &sys.slots[i]
			touched, ok := sl.pendingTouched(sl.state.Load())
			if !ok || bits.TrailingZeros64(touched) != sv.shard {
				continue
			}
			if sv.serveEpoch(touched, i) {
				hot = true
			}
		}
		if hot {
			w.Reset()
		} else {
			w.Wait()
		}
	}
}

// serveEpoch is the commit-server's way into an epoch: take every stream in
// mask in ascending order (the total order makes concurrent multi-stream
// drivers deadlock-free; the wait is for other leaders and helping clients),
// run the epoch from slot first, release in descending order. sv must be the
// server of mask's lowest stream. It reports whether any reply was sent.
//
//stm:hotpath
func (sv *shardServer) serveEpoch(mask uint64, first int) bool {
	var clk phaseClock
	if mask&(mask-1) != 0 {
		clk = startClock(sv.latC, sv.commitRing)
		sv.sys.lockStreams(mask)
		clk.lap(obs.LatLockWait, obs.KLockWait, 0)
	} else {
		// On one stream the wait was another driver's whole epoch, timed there.
		sv.sys.lockStreams(mask)
		clk = startClock(sv.latC, sv.commitRing)
	}
	_, replied := sv.epoch(mask, first, &clk)
	sv.sys.unlockStreams(mask)
	return replied
}

// epoch executes one group-commit epoch over the streams in mask, all of
// which the caller holds — the commit-server of mask's lowest stream (sv), or
// a client helping its own single-stream request. The locks serialize it
// against every other driver of those streams and hand the caller sv's
// scratch and each written stream's ring buffers. The epoch is the paper's
// commit-server critical path as seven stages; what the variants change is a
// parameter of a stage, not a different path (DESIGN.md §11):
//
//	collect    admit pending requests with touched == mask from slot first
//	           upward, re-reading each under the locks (collect)
//	catch up   until no touched stream's partition trails by more than the lag
//	           budget — 2·stepsAhead on one stream, 0 across streams (V2's lag
//	           wait and the cross-shard drain) — wait for its scanner, or, once
//	           the busy phase is spent, scan it if it is free; skipped without
//	           partitions (V1)
//	check      answer doomed members ABORTED without a timestamp transition
//	publish    raise the written streams odd, invalidate (inline without
//	           partitions, else by descriptor), write back, lower them even
//	record     the batch-size sample (the stream's Epochs and Commits)
//	reply      COMMITTED to every member
//	scan       with partitions: apply the new descriptor to every partition of
//	           the written streams that no one else is scanning (scanPartition)
//
// A multi-stream epoch admits one request: cross-shard requests are led solo.
// committed is the number of members the epoch committed (0: no timestamp
// transition); replied is false when no reply at all was sent (nothing
// admissible from first upward) so the caller can back off. Incompatible or
// deferred requests stay PENDING for a later epoch.
//
//stm:hotpath
func (sv *shardServer) epoch(mask uint64, first int, clk *phaseClock) (committed int, replied bool) {
	sys, e := sv.sys, sv.eng
	multi := mask&(mask-1) != 0
	maxBatch, lagBudget := e.maxBatch, 2*uint64(e.stepsAhead)
	if multi {
		maxBatch, lagBudget = 1, 0
	}
	pending := sv.collect(mask, first, maxBatch, lagBudget)
	if len(sv.batchIdx) == 0 {
		return 0, false
	}
	sv.queueDepth.Record(pending)
	sv.commitRing.Counter(obs.KQueueDepth, pending)
	clk.lap(obs.LatCollect, obs.KScan, pending)

	if sys.nInvalPerShard > 0 {
		// Every stream's timestamp is frozen even under its lock. Bounding
		// each partition's lag also proves the ring entry publish overwrites
		// has been consumed (Alg. 3 l. 7 / Alg. 4 l. 5); a zero budget catches
		// every partition up, which makes the ALIVE checks below conclusive
		// for any member (V3 on one stream admitted only requesters whose own
		// partition already had). A partition that still lags once the busy
		// phase is spent has no scanner with a core of its own: the driver
		// scans it itself if it is free, and otherwise yields to its holder.
		catchUp := obs.LatInvalWait
		if multi {
			catchUp = obs.LatDrain
		}
		for m := mask; m != 0; m &= m - 1 {
			tsv := e.srv[bits.TrailingZeros64(m)]
			t := tsv.st.ts.Load()
			for k := range tsv.st.invalTS {
				var w spin.Waiter
				for tsv.st.invalTS[k].Load()+lagBudget < t {
					if w.Busy() || !tsv.scanPartition(k, clk) {
						w.Wait()
					}
				}
			}
		}
		clk.lap(catchUp, obs.KInvalWait, 0)
	}

	// Per-member status check before touching a timestamp: doomed members
	// are answered without burning a timestamp increment (Algorithm 2, line
	// 15). No in-flight scan can doom a survivor afterwards — the only
	// unprocessed descriptor will be this epoch's, which skips members by
	// mask.
	n := 0
	for _, j := range sv.batchIdx {
		s := &sys.slots[j]
		if _, alive := s.aliveWord(); !alive {
			s.reply(reqAborted)
			continue
		}
		sv.batchIdx[n] = j
		n++
	}
	if n == 0 {
		return 0, true // progress: abort replies were sent
	}
	if n < len(sv.batchIdx) {
		// Rebuild the epoch signature from the survivors so a doomed
		// member's writes do not cause spurious invalidations.
		sv.batchIdx = sv.batchIdx[:n]
		sv.batchWS.Clear()
		for _, j := range sv.batchIdx {
			sv.batchWS.UnionWith(sys.slots[j].req.ws.bf)
		}
	}

	writes := sv.publish(mask, clk)

	// Every record lands while the caller still holds sv's stream: the next
	// driver owns sv's histograms, ring and cell the moment the lock is free.
	// The batch-size sample is the stream's Epochs (its count) and Commits
	// (its sum); it precedes the replies, so a member that saw its commit
	// finds it counted in System.Stats.
	if multi {
		atomic.AddUint64(&sv.commitSrv.CrossShardCommits, uint64(n))
	}
	sv.batchSizes.Record(uint64(n))

	for _, j := range sv.batchIdx {
		sys.slots[j].reply(reqCommitted)
	}
	clk.lap(obs.LatReply, obs.KReply, uint64(n))

	// Last, off the members' critical path: leave no written partition (if
	// any) lagging unless somebody is scanning it. An invalidation-server
	// with a core of its own took its partition when the stream went odd, so
	// these calls fail on a plain load; without one the driver does the scan
	// and the next reader of the partition finds it caught up.
	for m := writes; m != 0; m &= m - 1 {
		wsv := e.srv[bits.TrailingZeros64(m)]
		for k := 0; k < sys.nInvalPerShard; k++ {
			wsv.scanPartition(k, clk)
		}
	}
	clk.ring.SpanAt(obs.KEpoch, clk.t0, clk.prev, uint64(n))
	return n, true
}

// collect is the epoch's admit stage: it fills batchIdx (and the batch's
// write/read signature unions) with up to maxBatch pending requests from slot
// first upward whose touched mask is exactly mask, and returns how many such
// requests it saw — the queue depth. Every candidate is re-read here, under
// the locks, so a request answered or retracted since its discovery is
// skipped: the lock holder is the single answerer. Members must be mutually
// compatible — a member's write signature must not intersect the members'
// write union (W/W) or read union (it would overwrite something a member
// read), and its read signature must not intersect the write union (it read
// something a member overwrites). The unions exist only once a second
// candidate is tested: a lone member's signature is taken from its request
// (publish). With maxBatch 1 this degenerates to the paper's one-request
// protocol: the leader alone, no compatibility tests.
//
//stm:hotpath
func (sv *shardServer) collect(mask uint64, first, maxBatch int, lagBudget uint64) (pending uint64) {
	sys, st := sv.sys, sv.st
	t := st.ts.Load() // even: only a stream-lock holder makes it odd
	if lagBudget > 0 {
		// V3's step-ahead occupancy: commits ahead of the slowest partition.
		minTS := st.invalTS[0].Load()
		for k := 1; k < len(st.invalTS); k++ {
			minTS = min(minTS, st.invalTS[k].Load())
		}
		sv.stepAhead.Record((t - minTS) / 2)
		sv.commitRing.Counter(obs.KStepAhead, (t-minTS)/2)
	}
	sv.batchIdx = sv.batchIdx[:0]
	unions := false // built from the leader once a second candidate needs them
	sv.epochBuf = sys.appendPendingCandidates(sv.epochBuf[:0], first)
	for _, j := range sv.epochBuf {
		if len(sv.batchIdx) >= maxBatch {
			break
		}
		s := &sys.slots[j]
		if touched, ok := s.pendingTouched(s.state.Load()); !ok || touched != mask {
			continue // answered meanwhile, or another mask's epoch to serve
		}
		ws := s.req.ws
		pending++
		if lagBudget > 0 && st.invalTS[s.invalServer].Load() < t {
			// V3: the requester's own server must have applied every prior
			// commit's invalidation for the ALIVE check to be conclusive
			// (Alg. 4 l. 2). Defer; serve requests that are ready. (With a
			// zero budget the catch-up stage covers every server instead.)
			continue
		}
		if len(sv.batchIdx) > 0 {
			if !unions {
				lead := &sys.slots[sv.batchIdx[0]]
				sv.batchWS.CopyFrom(lead.req.ws.bf)
				sv.batchRS.Clear()
				sv.batchRS.UnionAtomic(lead.readBF)
				unions = true
			}
			if ws.bf.Intersects(sv.batchWS) || ws.bf.Intersects(sv.batchRS) ||
				s.readBF.IntersectsFilter(sv.batchWS) {
				continue
			}
		}
		sv.batchIdx = append(sv.batchIdx, j)
		if unions {
			sv.batchWS.UnionWith(ws.bf)
			sv.batchRS.UnionAtomic(s.readBF)
		}
	}
	return pending
}

// publish is the epoch's write stage, under one odd window per written
// stream: raise every stream the batch writes odd in ascending order, doom
// the conflicting readers, write back, lower the streams even in descending
// order — so the lowest written stream's odd window encloses the others,
// which is what captureSnapshot's double collect relies on. Streams the batch
// only read stay even. Without partitions (V1) the driver dooms inline,
// between the raise and the write-back (latency phase "scan": the driver
// actively scans rather than waits). With them it hands
// the merged signature and member mask to each written stream's
// partition scanners and writes back in parallel with their scans; both are
// copied into that stream's ring-slot descriptor (owned through its lock,
// proved consumed by the catch-up stage) because a client reclaims its write
// set the moment it sees the reply, while the scans may still run. A victim
// may be scanned once per written stream — the doom CAS is epoch-guarded, so
// duplicates are no-ops. It returns the written-stream mask: mask itself on
// one stream (every member's write set is non-empty and lies in its touched
// mask, which is mask), the lone member's request's across streams.
//
//stm:hotpath
func (sv *shardServer) publish(mask uint64, clk *phaseClock) (writes uint64) {
	sys, e := sv.sys, sv.eng
	var kd *killDesc
	if sys.attr != nil {
		kd = sv.epochKillDesc()
	}
	// The epoch's write signature, member mask and written streams: a lone
	// member's own (its filter is stable until the reply, its mask immutable),
	// else the batch unions.
	sig, members, writes := sv.batchWS, sv.batchMask, mask
	if len(sv.batchIdx) == 1 {
		s := &sys.slots[sv.batchIdx[0]]
		sig, members = s.req.ws.bf, s.selfMask
		if mask&(mask-1) != 0 {
			writes = s.req.writes.Load()
		}
	} else {
		members.clearAll()
		for _, j := range sv.batchIdx {
			members.set(j)
		}
	}
	for m := writes; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		st := &sys.streams[j]
		if sys.nInvalPerShard > 0 {
			slot := (st.ts.Load() / 2) % uint64(len(st.ring))
			d := &e.srv[j].descBufs[slot]
			d.bf.CopyFrom(sig)
			d.members.copyFrom(members)
			d.kd = kd
			st.ring[slot].Store(d)
		}
		st.ts.Add(1)
	}
	if sys.nInvalPerShard == 0 {
		doomed := sys.invalidate(sys.allSlots, members, sig, sv.commitRing, kd)
		if doomed > 0 {
			atomic.AddUint64(&sv.commitSrv.Invalidations, doomed)
		}
		clk.lap(obs.LatScan, obs.KInvalWait, doomed)
	}
	for _, j := range sv.batchIdx {
		sys.writeBack(sys.slots[j].req.ws)
	}
	for m := writes; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		sys.streams[j].ts.Add(1)
	}
	clk.lap(obs.LatWriteBack, obs.KWriteBack, uint64(len(sv.batchIdx)))
	return writes
}

// phaseClock times a server's phases for their two consumers, its latency
// cell and its trace track, and reads the clock only when one of them is on.
// The zero clock of a disabled pair makes every lap a branch and nothing else.
type phaseClock struct {
	lat      *obs.LatCell
	ring     *obs.Ring
	t0, prev int64 // start, and the end of the last lap
}

// startClock starts a clock feeding lat and ring (either may be nil).
//
//stm:hotpath
func startClock(lat *obs.LatCell, ring *obs.Ring) phaseClock {
	c := phaseClock{lat: lat, ring: ring}
	if lat != nil || ring != nil {
		c.t0 = obs.Now()
		c.prev = c.t0
	}
	return c
}

// lap ends the phase that began at the previous lap (or at the start):
// one sample of latency phase p, one trace span of kind k carrying arg.
//
//stm:hotpath
func (c *phaseClock) lap(p obs.LatPhase, k obs.Kind, arg uint64) {
	if c.lat == nil && c.ring == nil {
		return
	}
	now := obs.Now()
	c.lat.Record(p, now-c.prev)
	c.ring.SpanAt(k, c.prev, now, arg)
	c.prev = now
}

// scanPartition applies every outstanding descriptor of this stream to
// invalidation partition k and advances invalTS[k] past each, if the partition
// lags and nobody else is scanning it; it reports whether it took the
// partition. It is Algorithm 3's INVALIDATION-SERVER LOOP body, run by
// whoever holds the partition's lock: invalidation-server k, or an epoch
// driver (catch-up and post-reply stages of epoch), so a partition lags only
// while somebody is scanning it. The lag test is two plain loads and the
// try-lock a third, so a caller that finds the partition caught up or taken —
// the driver's common case where a server owns a core — pays no more. The
// descriptor for base timestamp invalTS[k] was published before the timestamp
// moved past it, and no epoch driver can overwrite it until invalTS[k]
// advances (ring bound). Each descriptor is one "scan" lap on the caller's
// clock — the server's own, or the driver's epoch clock, so an epoch's phases
// still sum to its span — and its dooms land on that clock's track.
//
//stm:hotpath
func (sv *shardServer) scanPartition(k int, clk *phaseClock) bool {
	sys, st := sv.sys, sv.st
	if st.ts.Load() > st.invalTS[k].Load() && sys.tryLockPartition(sv.shard, k) {
		for my := st.invalTS[k].Load(); st.ts.Load() > my; my += 2 {
			d := st.ring[(my/2)%uint64(len(st.ring))].Load()
			doomed := sys.invalidate(sys.partMask[k], d.members, d.bf, clk.ring, d.kd)
			if doomed > 0 {
				atomic.AddUint64(&sv.invalSrv[k].Invalidations, doomed)
			}
			st.invalTS[k].Store(my + 2)
			clk.lap(obs.LatScan, obs.KInvalScan, doomed)
		}
		sys.unlockPartition(sv.shard, k)
		return true
	}
	return false
}

// invalServerMain is invalidation-server k of this shard's stream: scan the
// partition whenever the stream timestamp passes its local timestamp and no
// epoch driver got there first. Every stream's server k covers the same
// global slot partition k; concurrent scans from different streams are safe
// because the doom CAS is epoch-guarded and idempotent. It runs only with a P
// of its own (serverTasks) and goes back to busy polling after every scan it
// won.
//
//stm:hotpath
func (sv *shardServer) invalServerMain(k int, stop func() bool) {
	var w spin.Waiter
	for !stop() {
		// The server's own cell and track, written only under the lock.
		clk := startClock(sv.invalLat[k], sv.invalRings[k])
		if sv.scanPartition(k, &clk) {
			w.Reset()
		} else {
			w.Wait()
		}
	}
}
