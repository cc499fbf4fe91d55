package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// remoteEngine implements the three Remote Invalidation variants (the
// paper's Algorithms 2-4) behind one parameterization:
//
//   - numInval == 0: RInval-V1. The commit-server executes both the
//     invalidation scan and the write-back itself. A client answered within
//     its busy phase never touches the global timestamp: it publishes a
//     request in its padded slot and spins on its own cache line, so commit
//     has zero CAS operations and no shared-lock spinning.
//   - numInval > 0, stepsAhead == 0: RInval-V2. Invalidation is partitioned
//     across numInval invalidation-server goroutines that run in parallel
//     with the commit-server's write-back. The commit-server waits for every
//     invalidation-server to catch up before starting the next commit.
//   - numInval > 0, stepsAhead > 0: RInval-V3. The commit-server may run up
//     to stepsAhead commits past the slowest invalidation-server, provided
//     the *requester's own* invalidation-server is fully caught up (which
//     makes the pre-commit status check conclusive). In-flight commit
//     descriptors live in a ring of stepsAhead+1 padded pointers.
//
// With Config.Shards > 1 the engine runs one shardServer — a commit-server
// plus its share of invalidation-servers — per commit stream. A request
// whose touched-shard mask (read shards ∪ write shards) is a single bit is
// served by that shard's server exactly as above, independently of every
// other stream; a cross-shard request is led solo by the server of its
// lowest touched shard through the two-phase stream handshake
// (serveCrossShard, DESIGN.md §11). Shards == 1 is the paper-exact baseline:
// one server set running the same epoch code.
//
// An epoch is driven by whoever holds its stream's lock. Normally that is the
// shard's commit-server; a client whose busy-wait budget ran out without a
// reply may take a free lock and run the epoch for its own request itself
// (help, DESIGN.md §16), which is what keeps commit latency at the cost of the
// work rather than of the hand-off when the server has no core of its own.
type remoteEngine struct {
	sys        *System
	numInval   int // invalidation-servers per commit stream (0 for V1)
	stepsAhead int
	maxBatch   int
	sharded    bool // Shards > 1: touched-mask routing + cross-shard handshake

	// srv[j] is shard j's server set. Exactly one entry when Shards == 1.
	srv []*shardServer
}

// shardServer is one commit stream's server set: the commit-server loop, its
// group-commit scratch, the stream's invalidation-server loops, and their
// stats. The epoch scratch and records (sigBufs/memberBufs, the batch*
// fields, epochBuf, attrEpochs, commitRing, latC and commitSrv's histograms)
// belong to whoever holds this stream's lock — the shard's commit-server, a
// cross-shard leader, or a helping client — and must only be written with it
// held. scanBuf stays private to the commit-server goroutine's outer scan,
// and each invalidation-server owns its Stats entry, ring and cell.
type shardServer struct {
	eng   *remoteEngine
	sys   *System
	shard int
	st    *commitStream

	// sigBufs[i] is the stable write-signature buffer for ring slot i. The
	// commit-server copies the batch's merged write filter here before
	// publishing the descriptor: a client regains ownership of its write set
	// (and clears its filter) as soon as it sees the COMMITTED reply, which
	// can happen while invalidation-servers are still scanning. The ring's
	// overwrite bound (no server trails by more than stepsAhead commits)
	// guarantees a buffer is never recycled while a server still reads it.
	sigBufs []*bloom.Filter
	// memberBufs[i] is the stable member-mask buffer for ring slot i, reused
	// under the same overwrite bound as sigBufs.
	memberBufs []slotMask

	// Group-commit scratch, owned by the stream-lock holder: the batch
	// member slots, the union of their write signatures, the union of their
	// read signatures (for the R/W compatibility test), and the member mask
	// RInvalV1 passes to its inline invalidation scan.
	batchIdx  []int
	batchWS   *bloom.Filter
	batchRS   *bloom.Filter
	batchMask slotMask

	// scanBuf/epochBuf hold the candidate slots of the outer request scan
	// (commit-server goroutine only) and of one epoch's collection pass
	// (lock holder) — the active bitmap's word-decoded indices, or every slot
	// under FlatScan. Reused.
	scanBuf  []int
	epochBuf []int

	commitSrv Stats   // commit-server activity (valid after servers stop)
	invalSrv  []Stats // per-invalidation-server activity

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

func newRemoteEngine(sys *System, numInval, stepsAhead int) *remoteEngine {
	perShard := 0
	if numInval > 0 {
		perShard = sys.nInvalPerShard
	}
	e := &remoteEngine{
		sys:        sys,
		numInval:   perShard,
		stepsAhead: stepsAhead,
		maxBatch:   sys.cfg.MaxBatch,
		sharded:    len(sys.streams) > 1,
	}
	for j := range sys.streams {
		sv := &shardServer{
			eng:        e,
			sys:        sys,
			shard:      j,
			st:         &sys.streams[j],
			invalSrv:   make([]Stats, perShard),
			sigBufs:    make([]*bloom.Filter, len(sys.streams[j].ring)),
			memberBufs: make([]slotMask, len(sys.streams[j].ring)),
			batchIdx:   make([]int, 0, sys.cfg.MaxThreads),
			batchWS:    bloom.NewFilter(sys.cfg.Bloom),
			batchRS:    bloom.NewFilter(sys.cfg.Bloom),
			batchMask:  newSlotMask(sys.cfg.MaxThreads),
			scanBuf:    make([]int, 0, sys.cfg.MaxThreads),
			epochBuf:   make([]int, 0, sys.cfg.MaxThreads),
		}
		for i := range sv.sigBufs {
			sv.sigBufs[i] = bloom.NewFilter(sys.cfg.Bloom)
			sv.memberBufs[i] = newSlotMask(sys.cfg.MaxThreads)
		}
		sv.latC = sys.lat.Server(j)
		sv.invalLat = make([]*obs.LatCell, perShard)
		for k := range sv.invalLat {
			sv.invalLat[k] = sys.lat.Server(len(sys.streams) + j*sys.nInvalPerShard + k)
		}
		sv.invalRings = make([]*obs.Ring, perShard)
		if sys.tracer != nil {
			sv.commitRing = sys.tracer.AddActor(serverName("commit-server", j, e.sharded))
			for k := range sv.invalRings {
				sv.invalRings[k] = sys.tracer.AddActor(serverName(fmt.Sprintf("inval-server-%d", k), j, e.sharded))
			}
		}
		e.srv = append(e.srv, sv)
	}
	return e
}

// serverName qualifies a server-task label with its shard when sharding is
// on; the single-stream names match the paper (and the seed) exactly.
func serverName(base string, shard int, sharded bool) string {
	if !sharded {
		return base
	}
	return fmt.Sprintf("shard%d-%s", shard, base)
}

func (e *remoteEngine) usesSlots() bool { return true }

func (e *remoteEngine) begin(tx *Tx) {}

// read uses the shared invalidation read protocol against the stream owning
// v's shard. With invalidation-servers present, a read additionally requires
// the reader's own server for that stream to have processed every prior
// commit (Algorithm 3 line 28): only then is "my status flag is still ALIVE"
// proof that no prior commit conflicted.
//
//stm:hotpath
func (e *remoteEngine) read(tx *Tx, v *Var) (*box, bool) {
	return invalRead(tx, v, e.numInval > 0)
}

// commit is the client side of Algorithm 2's CLIENT COMMIT: publish the
// request, then spin on the private reply field until an epoch driver
// answers. Identical for all three variants. Under sharding the request also
// carries the transaction's shard masks, computed here from the write set
// and the shards its reads visited; the server of the lowest touched shard
// owns the request. Once the waiter's busy phase has run out — a server with
// a core of its own would have replied by now — each further iteration first
// offers to drive the epoch itself (help) and only yields if it could not.
//
//stm:hotpath
func (e *remoteEngine) commit(tx *Tx) bool {
	if tx.ws.len() == 0 {
		return true
	}
	if tx.invalidated() {
		tx.reason = AbortInvalidated
		return false
	}
	if readerBiasedSelfAbort(tx) {
		return false
	}
	req := &commitReq{ws: tx.ws, writes: 1, touched: 1}
	if e.sharded {
		var writes uint64
		for i := range tx.ws.entries {
			writes |= 1 << (tx.ws.entries[i].v.shardH & e.sys.shardMask)
		}
		req.writes = writes
		req.touched = writes | tx.readShards
	}
	sl := tx.slot
	sl.req.Store(req)
	sl.state.Store(reqPending)
	tx.ring.Instant(obs.KCommitReq, 0)
	var w spin.Waiter
	for {
		switch sl.state.Load() {
		case reqCommitted:
			sl.state.Store(reqIdle)
			sl.req.Store(nil)
			return true
		case reqAborted:
			sl.state.Store(reqIdle)
			sl.req.Store(nil)
			tx.reason = AbortInvalidated
			return false
		}
		if !w.Busy() && e.help(tx, req) {
			continue // replied to: re-read our own line
		}
		w.Wait()
	}
}

// help lets a waiting client drive the epoch for its own request: if the
// request is single-stream and the home stream's lock is free at this moment,
// take it, run the same serveEpochLocked the commit-server runs — starting at
// the client's own slot, so compatible requests above it ride along — and
// release. It reports whether the call sent any reply. The lock holder is
// the single answerer: the collection pass re-reads every candidate's state
// under the lock, so a request the server answered just before the CAS is
// skipped. A busy lock means someone is already driving an epoch here (in
// the paper's regime the commit-server, for the whole epoch), and V3 declines
// inside serveEpochLocked while the client's invalidation-server lags; both
// fall back to waiting. Cross-shard requests stay with their leader server:
// serveCrossShard does not re-check the request after locking.
//
//stm:hotpath
func (e *remoteEngine) help(tx *Tx, req *commitReq) bool {
	if req.touched&(req.touched-1) != 0 {
		return false
	}
	sv := e.srv[bits.TrailingZeros64(req.touched)]
	if !e.sys.tryLockStream(sv.shard) {
		return false
	}
	committed, replied := sv.serveEpochLocked(tx.th.idx)
	e.sys.unlockStream(sv.shard)
	if committed > 0 {
		atomic.AddUint64(&tx.stats.HelpedEpochs, 1)
	}
	return replied
}

func (e *remoteEngine) abort(tx *Tx) {}

func (e *remoteEngine) serverTasks() []serverTask {
	var tasks []serverTask
	for j := range e.srv {
		sv := e.srv[j]
		tasks = append(tasks, serverTask{
			name: serverName("commit-server", j, e.sharded),
			run:  sv.commitServerMain,
		})
		for k := 0; k < e.numInval; k++ {
			k := k
			tasks = append(tasks, serverTask{
				name: serverName(fmt.Sprintf("inval-server-%d", k), j, e.sharded),
				run:  func(stop func() bool) { sv.invalServerMain(k, stop) },
			})
		}
	}
	return tasks
}

func (e *remoteEngine) serverStats() Stats {
	var agg Stats
	for _, sv := range e.srv {
		agg.Add(sv.commitSrv)
		for i := range sv.invalSrv {
			agg.Add(sv.invalSrv[i])
		}
	}
	return agg
}

// commitServerMain is Algorithm 2/3/4's COMMIT-SERVER LOOP: scan the
// requests array for PENDING entries and execute them, batching compatible
// requests into one group-commit epoch. The scan order gives a round-robin
// fairness guarantee: a pending request is served within one pass over the
// array (V3 may defer a request whose invalidation-server lags, but that
// server's catch-up is itself bounded by the ring; a request left out of a
// batch for incompatibility stays PENDING and leads its own epoch when the
// scan reaches it). Under sharding each server claims only the requests it
// homes — single-shard requests of its own stream, plus cross-shard requests
// whose lowest touched shard is its stream — so a request still has exactly
// one server; a single-stream request may instead be answered by a helping
// client, and the stream lock decides which of the two does.
//
//stm:hotpath
func (sv *shardServer) commitServerMain(stop func() bool) {
	sys := sv.sys
	sharded := sv.eng.sharded
	home := uint64(1) << uint(sv.shard)
	var w spin.Waiter
	for !stop() {
		progress := false
		// Candidates come from the active bitmap: a PENDING requester is
		// ALIVE for its whole wait, so its bit is set, and the per-candidate
		// state check below filters the (routine) stale bits. A request
		// published after the bitmap snapshot is picked up on the next pass.
		sv.scanBuf = sys.appendPendingCandidates(sv.scanBuf[:0], 0)
		for _, i := range sv.scanBuf {
			if sys.slots[i].state.Load() != reqPending {
				continue
			}
			if sharded {
				// The request pointer may already be retracted if another
				// server answered its owner between the state check and this
				// load; only requests homed here are served by this loop.
				req := sys.slots[i].req.Load()
				if req == nil {
					continue
				}
				if req.touched&(req.touched-1) != 0 {
					// Cross-shard: led solo by the lowest touched shard.
					if bits.TrailingZeros64(req.touched) != sv.shard {
						continue
					}
					sv.serveCrossShard(i, req)
					progress = true
					continue
				}
				if req.touched != home {
					continue
				}
			}
			if sv.serveEpochFrom(i) {
				progress = true
			}
		}
		if progress {
			w.Reset()
		} else {
			w.Wait()
		}
	}
}

// serveEpochFrom is the commit-server's epoch: take this shard's stream lock
// (waiting out a cross-shard leader or a helping client), run one epoch
// starting at slot first, release. It reports whether any reply was sent.
//
//stm:hotpath
func (sv *shardServer) serveEpochFrom(first int) bool {
	sv.sys.lockStream(sv.shard)
	_, replied := sv.serveEpochLocked(first)
	sv.sys.unlockStream(sv.shard)
	return replied
}

// serveEpochLocked executes one group-commit epoch on this shard's stream.
// The caller holds the stream's lock — the shard's commit-server, or a client
// helping its own request — which serializes the epoch against every other
// driver of this stream (cross-shard leaders included) and hands the caller
// this shardServer's scratch. Starting at slot first, it collects up to
// maxBatch pending requests homed to this stream whose signatures are
// mutually compatible — no W/W overlap (two members writing the same
// location) and no R/W overlap in either direction (a member reading what
// another writes), tested on the bloom signatures — then retires the whole
// batch under a single odd/even timestamp transition and replies to every
// member. Incompatible or deferred requests stay PENDING for a later epoch.
// committed is the number of members the epoch committed (0: no timestamp
// transition); replied is false when no reply at all was sent (nothing
// pending from first upward, or V3: every pending requester's
// invalidation-server lags) so the caller can back off.
//
//stm:hotpath
func (sv *shardServer) serveEpochLocked(first int) (committed int, replied bool) {
	sys := sv.sys
	st := sv.st
	home := uint64(1) << uint(sv.shard)
	ring := sv.commitRing
	phases := &sv.commitSrv.Server
	// Phase timestamps cost a clock read each, so they are taken only when
	// someone consumes them: the phase histograms (cfg.Stats), the trace
	// ring, or the live latency recorder. The queue-depth and step-ahead
	// samples are clock-free and always collected.
	timing := sys.cfg.Stats || ring != nil || sv.latC != nil
	var tStart int64
	if timing {
		tStart = obs.Now()
	}
	t := st.ts.Load() // even: only the stream-lock holder makes it odd

	if sv.eng.numInval > 0 && sv.eng.stepsAhead > 0 {
		// V3 step-ahead occupancy: how many commits this server is running
		// ahead of the stream's slowest invalidation-server right now.
		minTS := st.invalTS[0].Load()
		for k := 1; k < len(st.invalTS); k++ {
			if v := st.invalTS[k].Load(); v < minTS {
				minTS = v
			}
		}
		occ := (t - minTS) / 2
		phases.StepAhead.Record(occ)
		ring.Counter(obs.KStepAhead, occ)
	}

	// Collect the batch in array order from the leader onward. A member's
	// write signature must not intersect the members' write union (W/W) or
	// read union (it would overwrite something a member read), and its read
	// signature must not intersect the write union (it read something a
	// member overwrites). With MaxBatch=1 this degenerates to the paper's
	// one-request protocol: the leader alone, no compatibility tests.
	sv.batchIdx = sv.batchIdx[:0]
	sv.batchWS.Clear()
	sv.batchRS.Clear()
	pending := uint64(0) // queue depth: every PENDING request the scan saw
	sv.epochBuf = sys.appendPendingCandidates(sv.epochBuf[:0], first)
	for _, j := range sv.epochBuf {
		if len(sv.batchIdx) >= sv.eng.maxBatch {
			break
		}
		s := &sys.slots[j]
		if s.state.Load() != reqPending {
			continue
		}
		req := s.req.Load()
		if req == nil {
			continue
		}
		if req.touched != home {
			// Another stream's request, or a cross-shard one (those lead
			// their own handshake epoch); not this epoch's to serve.
			continue
		}
		pending++
		if sv.eng.numInval > 0 && sv.eng.stepsAhead > 0 && st.invalTS[s.invalServer].Load() < t {
			// V3: the requester's own server must have applied every prior
			// commit's invalidation for the ALIVE check below to be
			// conclusive (Alg. 4 l. 2). Defer; serve requests that are ready.
			// (V2 admits the request: the lag wait below catches every
			// server up to t before the ALIVE checks.)
			continue
		}
		if len(sv.batchIdx) > 0 {
			if req.ws.intersects(sv.batchWS) || req.ws.intersects(sv.batchRS) ||
				s.readBF.IntersectsFilter(sv.batchWS) {
				continue
			}
		}
		sv.batchIdx = append(sv.batchIdx, j)
		sv.batchWS.UnionWith(req.ws.bf)
		sv.batchRS.UnionAtomic(s.readBF)
	}
	if len(sv.batchIdx) == 0 {
		return 0, false
	}
	phases.QueueDepth.Record(pending)
	ring.Counter(obs.KQueueDepth, pending)
	tPrev := tStart // end of the last timed phase
	if timing {
		now := obs.Now()
		if sys.cfg.Stats {
			phases.ScanNs.Record(uint64(now - tPrev))
		}
		sv.latC.Record(obs.LatCollect, now-tPrev)
		ring.SpanAt(obs.KScan, tPrev, now, pending)
		tPrev = now
	}

	if sv.eng.numInval > 0 {
		// No invalidation-server may trail by more than stepsAhead commits;
		// this also guarantees the ring entry we are about to overwrite has
		// been consumed by every server (Alg. 3 l. 7 / Alg. 4 l. 5). For V2
		// (stepsAhead == 0) it additionally catches every server up to t,
		// which makes the per-member ALIVE checks below conclusive.
		lagBudget := 2 * uint64(sv.eng.stepsAhead)
		for k := range st.invalTS {
			var w spin.Waiter
			for st.invalTS[k].Load()+lagBudget < t {
				w.Wait()
			}
		}
		if timing {
			now := obs.Now()
			if sys.cfg.Stats {
				phases.InvalWaitNs.Record(uint64(now - tPrev))
			}
			sv.latC.Record(obs.LatInvalWait, now-tPrev)
			ring.SpanAt(obs.KInvalWait, tPrev, now, 0)
			tPrev = now
		}
	}

	// Per-member status check before touching the timestamp: doomed members
	// are answered without burning a timestamp increment (Algorithm 2, line
	// 15). The check is conclusive for every member: its own invalidation
	// server has applied all prior commits (V1: the commit-server itself is
	// the only invalidator), and no in-flight scan can doom it afterwards —
	// the only unprocessed descriptor will be this epoch's, which skips
	// members by mask.
	n := 0
	for _, j := range sv.batchIdx {
		s := &sys.slots[j]
		if _, alive := s.aliveWord(); !alive {
			s.state.Store(reqAborted)
			continue
		}
		sv.batchIdx[n] = j
		n++
	}
	dropped := n < len(sv.batchIdx)
	sv.batchIdx = sv.batchIdx[:n]
	if n == 0 {
		return 0, true // progress: abort replies were sent
	}
	if dropped {
		// Rebuild the epoch signature from the survivors so a doomed
		// member's writes do not cause spurious invalidations. The doomed
		// slots have been answered; only survivors' requests are re-read.
		sv.batchWS.Clear()
		for _, j := range sv.batchIdx {
			sv.batchWS.UnionWith(sys.slots[j].req.Load().ws.bf)
		}
	}

	var kd *killDesc
	if sys.attr != nil {
		kd = sv.epochKillDesc()
	}
	if sv.eng.numInval == 0 {
		// V1: one serial invalidation scan + write-back epoch for the batch.
		sv.batchMask.clearAll()
		for _, j := range sv.batchIdx {
			sv.batchMask.set(j)
		}
		st.ts.Add(1)
		doomed := sys.invalidateOthers(sv.batchMask, sv.batchWS, sv.commitRing, kd)
		atomic.AddUint64(&sv.commitSrv.Invalidations, doomed)
		if timing {
			// V1 has no lag wait; the inline scan itself is the
			// invalidation phase (latency phase "scan", since the server
			// actively scans rather than waits).
			now := obs.Now()
			if sys.cfg.Stats {
				phases.InvalWaitNs.Record(uint64(now - tPrev))
			}
			sv.latC.Record(obs.LatScan, now-tPrev)
			ring.SpanAt(obs.KInvalWait, tPrev, now, doomed)
			tPrev = now
		}
		for _, j := range sv.batchIdx {
			sys.writeBack(sys.slots[j].req.Load().ws)
		}
		st.ts.Add(1)
	} else {
		// V2/V3: hand the merged signature and member mask to the
		// invalidation-servers, then write back in parallel with their
		// scans. Signature and mask are copied into ring-owned buffers
		// because a client reclaims its write set the moment it sees the
		// reply, while the scans may still run.
		slot := (t / 2) % uint64(len(st.ring))
		sv.sigBufs[slot].CopyFrom(sv.batchWS)
		m := sv.memberBufs[slot]
		m.clearAll()
		for _, j := range sv.batchIdx {
			m.set(j)
		}
		st.ring[slot].Store(&commitDesc{bf: sv.sigBufs[slot], members: m, kd: kd})
		st.ts.Add(1)
		for _, j := range sv.batchIdx {
			sys.writeBack(sys.slots[j].req.Load().ws)
		}
		st.ts.Add(1)
	}
	if timing {
		now := obs.Now()
		if sys.cfg.Stats {
			phases.WriteBackNs.Record(uint64(now - tPrev))
		}
		sv.latC.Record(obs.LatWriteBack, now-tPrev)
		ring.SpanAt(obs.KWriteBack, tPrev, now, uint64(n))
		tPrev = now
	}
	for _, j := range sv.batchIdx {
		sys.slots[j].state.Store(reqCommitted)
	}
	if timing {
		now := obs.Now()
		if sys.cfg.Stats {
			phases.ReplyNs.Record(uint64(now - tPrev))
		}
		sv.latC.Record(obs.LatReply, now-tPrev)
		ring.SpanAt(obs.KReply, tPrev, now, uint64(n))
		ring.SpanAt(obs.KEpoch, tStart, now, uint64(n))
	}
	atomic.AddUint64(&sv.commitSrv.Commits, uint64(n))
	atomic.AddUint64(&sv.commitSrv.Epochs, 1)
	sv.commitSrv.BatchSizes.Record(uint64(n))
	return n, true
}

// serveCrossShard retires one cross-shard commit request through the
// two-phase stream handshake (DESIGN.md §11). Phase one acquires every
// touched stream's lock in ascending shard index order (the total order
// makes concurrent handshakes deadlock-free) and — with invalidation-servers
// present — drains each touched stream's servers fully to its frozen even
// timestamp, which makes the requester's ALIVE check conclusive exactly as
// V2's lag wait does on a single stream. Phase two publishes one combined
// invalidation pass — the full write signature into every written stream's
// ring (V2/V3) or one inline scan while the written streams are odd (V1) —
// writes back, raises/releases the written timestamps (odd ascending, even
// descending), replies, records, and unlocks in reverse order. Only the
// lowest touched shard's commit-server runs this, so each request still has
// a single answerer. Every record lands while the leader still holds its own
// stream: a helping client may own this shardServer's histograms, ring and
// cell the moment the lock is free. Called only when Shards > 1.
//
//stm:hotpath
func (sv *shardServer) serveCrossShard(i int, req *commitReq) {
	sys := sv.sys
	s := &sys.slots[i]
	touched := req.touched
	ring := sv.commitRing
	timing := sys.cfg.Stats || ring != nil || sv.latC != nil
	var tStart int64
	if timing {
		tStart = obs.Now()
	}
	for m := touched; m != 0; m &= m - 1 {
		sys.lockStream(bits.TrailingZeros64(m))
	}
	tPrev := tStart // end of the last timed handshake phase
	if timing {
		now := obs.Now()
		if sys.cfg.Stats {
			sv.commitSrv.Server.LockWaitNs.Record(uint64(now - tPrev))
		}
		sv.latC.Record(obs.LatLockWait, now-tPrev)
		tPrev = now
	}
	if sv.eng.numInval > 0 {
		// Drain every touched stream: with its lock held the timestamp is
		// frozen even, so catching each local server up to it applies every
		// prior commit of that stream — the requester's status flag then
		// conclusively reflects all of them, and every ring slot we may
		// overwrite below has been consumed.
		for m := touched; m != 0; m &= m - 1 {
			st := &sys.streams[bits.TrailingZeros64(m)]
			t := st.ts.Load()
			for k := range st.invalTS {
				var w spin.Waiter
				for st.invalTS[k].Load() < t {
					w.Wait()
				}
			}
		}
		if timing {
			now := obs.Now()
			if sys.cfg.Stats {
				sv.commitSrv.Server.DrainNs.Record(uint64(now - tPrev))
			}
			sv.latC.Record(obs.LatDrain, now-tPrev)
			tPrev = now
		}
	}
	if _, alive := s.aliveWord(); !alive {
		s.state.Store(reqAborted)
		unlockStreamsDesc(sys, touched)
		return
	}
	var kd *killDesc
	if sys.attr != nil {
		sv.batchIdx = append(sv.batchIdx[:0], i)
		kd = sv.epochKillDesc()
	}
	writes := req.writes
	if sv.eng.numInval == 0 {
		// V1: raise every written stream odd, run one combined inline scan
		// (dooms precede write-back, as on a single stream), write back, then
		// release the timestamps even.
		for m := writes; m != 0; m &= m - 1 {
			sys.streams[bits.TrailingZeros64(m)].ts.Add(1)
		}
		doomed := sys.invalidateOthers(s.selfMask, req.ws.bf, ring, kd)
		atomic.AddUint64(&sv.commitSrv.Invalidations, doomed)
		sys.writeBack(req.ws)
		for m := writes; m != 0; {
			j := bits.Len64(m) - 1
			m &^= 1 << uint(j)
			sys.streams[j].ts.Add(1)
		}
	} else {
		// V2/V3: publish the combined descriptor into every written stream's
		// ring, so each stream's servers doom its readers asynchronously. The
		// signature is copied into that stream's ring-slot buffer (safe: the
		// drain above proved the slot consumed, and the stream lock keeps its
		// owner out); the member mask is the requester's immutable selfMask.
		// The same victim may be scanned once per written stream — the doom
		// CAS is epoch-guarded, so duplicates are no-ops.
		for m := writes; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			st := &sys.streams[j]
			t := st.ts.Load()
			slot := (t / 2) % uint64(len(st.ring))
			buf := sv.eng.srv[j].sigBufs[slot]
			buf.CopyFrom(req.ws.bf)
			st.ring[slot].Store(&commitDesc{bf: buf, members: s.selfMask, kd: kd})
			st.ts.Add(1)
		}
		sys.writeBack(req.ws)
		for m := writes; m != 0; {
			j := bits.Len64(m) - 1
			m &^= 1 << uint(j)
			sys.streams[j].ts.Add(1)
		}
	}
	s.state.Store(reqCommitted)
	if timing {
		now := obs.Now()
		if sys.cfg.Stats {
			sv.commitSrv.Server.WriteBackNs.Record(uint64(now - tPrev))
		}
		sv.latC.Record(obs.LatWriteBack, now-tPrev)
		ring.SpanAt(obs.KEpoch, tStart, now, 1)
	}
	atomic.AddUint64(&sv.commitSrv.Commits, 1)
	atomic.AddUint64(&sv.commitSrv.Epochs, 1)
	atomic.AddUint64(&sv.commitSrv.CrossShardCommits, 1)
	sv.commitSrv.BatchSizes.Record(1)
	unlockStreamsDesc(sys, touched)
}

// unlockStreamsDesc releases the stream locks in mask in descending shard
// order — the reverse of the handshake's acquisition order.
//
//stm:hotpath
func unlockStreamsDesc(sys *System, mask uint64) {
	for m := mask; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		sys.unlockStream(j)
	}
}

// invalServerMain is Algorithm 3's INVALIDATION-SERVER LOOP for this shard's
// stream: whenever the stream timestamp passes this server's local
// timestamp, fetch the pending commit descriptor, doom conflicting
// transactions in this server's partition, and advance the local timestamp
// by 2. Every stream's server k covers the same global slot partition k;
// concurrent scans from different streams are safe because the doom CAS is
// epoch-guarded and idempotent.
//
//stm:hotpath
func (sv *shardServer) invalServerMain(k int, stop func() bool) {
	sys := sv.sys
	st := sv.st
	stats := &sv.invalSrv[k]
	ring := sv.invalRings[k]
	lc := sv.invalLat[k]
	timing := ring != nil || lc != nil
	var w spin.Waiter
	for !stop() {
		my := st.invalTS[k].Load()
		if st.ts.Load() > my {
			// The descriptor for base timestamp `my` was published before
			// the timestamp moved past it, and no epoch driver can
			// overwrite it until this server advances (ring bound).
			var t0 int64
			if timing {
				t0 = obs.Now()
			}
			d := st.ring[(my/2)%uint64(len(st.ring))].Load()
			doomed := sys.invalidatePartition(k, d.members, d.bf, ring, d.kd)
			atomic.AddUint64(&stats.Invalidations, doomed)
			st.invalTS[k].Store(my + 2)
			if timing {
				now := obs.Now()
				lc.Record(obs.LatScan, now-t0)
				ring.SpanAt(obs.KInvalScan, t0, now, doomed)
			}
			w.Reset()
		} else {
			w.Wait()
		}
	}
}
