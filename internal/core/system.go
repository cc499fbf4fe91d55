package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/obs"
	"github.com/ssrg-vt/rinval/internal/padded"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// serverTask is one RInval server goroutine: its run loop plus the stable
// name used for pprof goroutine labels and tracer tracks.
type serverTask struct {
	name string
	run  func(stop func() bool)
}

// slotMask is a bitmask over request-slot indices: the skip set an
// invalidation scan must leave alone. For a single committer it holds one
// bit; a group-commit epoch sets one bit per batch member so invalidation
// skips the whole batch (a transaction that reads then writes the same
// location always self-intersects).
type slotMask []uint64

func newSlotMask(n int) slotMask { return make(slotMask, (n+63)/64) }

func (m slotMask) set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

func (m slotMask) clearAll() {
	for i := range m {
		m[i] = 0
	}
}

func (m slotMask) copyFrom(o slotMask) { copy(m, o) }

// commitDesc is what the commit-server hands to invalidation-servers: the
// epoch's write signature (the union of every batch member's write filter)
// plus the committer-slot bitmask, so invalidation skips every member of the
// batch.
type commitDesc struct {
	bf      *bloom.Filter
	members slotMask
	// kd is the epoch's killer descriptor for conflict attribution (nil when
	// Config.Attribution is off): invalidation-servers publish it into each
	// victim's slot before the doom CAS.
	kd *killDesc
}

// commitStream is one shard's serialization point: its even/odd timestamp,
// its in-flight descriptor ring, and the local timestamps of the
// invalidation-servers assigned to it. With Config.Shards == 1 there is a
// single stream and the layout reproduces the paper exactly; with more, each
// stream orders only the commits that write its shard's Vars (DESIGN.md §11).
type commitStream struct {
	_ [padded.CacheLineSize - 24]byte
	// ts is the stream's even/odd timestamp (sequence lock). Even: no commit
	// write-back in progress. Odd: a committer is publishing its write set, or
	// an inline commit (inlineCommit) holds a stream it read.
	ts atomic.Uint64
	// epochs and crossShard count the inline RInval commits this stream led
	// and those of them that spanned streams, added by ts's holder on the line
	// its CAS owns; shardServer.stats folds them in as batches of one.
	epochs, crossShard atomic.Uint64
	_                  [padded.CacheLineSize]byte

	// owner is the stream lock where RInval's servers run: held (1) by
	// whoever drives an epoch here — the shard's own commit-server, the leader
	// of a multi-stream epoch that touches this stream, or a waiting client
	// that took it to run the epoch itself (DESIGN.md §16). Every ts
	// transition there happens under it, for every Shards value, so a holder
	// that observes ts even knows no epoch is in flight. Waiting acquisitions
	// go through lockStreams, in ascending shard order, which makes
	// multi-stream epochs deadlock-free.
	owner padded.Uint32

	// invalTS[k] is local invalidation-server k's timestamp for this stream
	// (RInvalV2/V3). Always even; server k has processed every commit of
	// this stream with base timestamp below invalTS[k] for its partition.
	invalTS []padded.Uint64

	// partOwner[k] is partition k's lock on this stream: held (1) by whoever
	// is applying the stream's outstanding descriptors to partition k —
	// invalidation-server k, or an epoch driver that found the partition
	// lagging and free (DESIGN.md §16, "One tier down"). invalTS[k] advances
	// only under it. Acquired with tryLockPartition alone, so it never waits;
	// the only legal nesting is stream lock, then partition lock.
	partOwner []padded.Uint32

	// ring holds this stream's in-flight commit descriptors. Slot (base/2)
	// mod len(ring); len(ring) = stepsAhead+1 bounds how many commits may be
	// awaiting invalidation at once. Empty without partitions, where every
	// commit dooms inline (newRemoteEngine).
	ring []padded.Pointer[commitDesc]

	// Round the cold tail (three 24-byte slice headers) up to a whole cache
	// line so []commitStream keeps every stream's spin lines exclusive.
	_ [padded.CacheLineSize - (24+24+24)%padded.CacheLineSize]byte
}

// System owns the shared state of one STM instance: the commit streams
// (one per shard; the global timestamp when Shards == 1), the cache-aligned
// requests array, and — for the RInval engines — the server goroutines.
// Create with New, dispose with Close.
type System struct {
	cfg Config

	// streams[s] is shard s's commit stream. streams[0].ts doubles as the
	// global timestamp for the single-stream engines (Mutex, NOrec,
	// InvalSTM, TL2), which require Shards == 1.
	streams []commitStream

	// shardMask is Config.Shards-1 (Shards is a power of two): a Var with
	// hash h belongs to shard h & shardMask. Zero when Shards == 1, so the
	// single-stream fast path costs one masked load.
	shardMask uint64

	// nInvalPerShard is the partitions per stream (partitionsPerStream), 0
	// without invalidation-servers; slot i's partition is i % nInvalPerShard.
	nInvalPerShard int

	// slots is the cache-aligned requests array (Figure 5), one entry per
	// registrable thread.
	slots []slot

	// active is the level-0 scan gate: one bit per slot, set while a
	// transaction is in flight there (see activeSet for the ordering
	// contract).
	active activeSet

	// nVers is Config.Versions: the per-Var history ring capacity, 0 when
	// multi-versioning is off. Cached here so the write-back dispatch is one
	// integer test.
	nVers int

	// roActive is the snapshot readers' own liveness bitmap (Versions > 0):
	// slot i's bit is set while a snapshot read-only transaction runs there.
	// Deliberately separate from active — committers never scan it, so
	// snapshot readers add zero work to invalidation epochs; only write-back's
	// GC floor computation (roFloorNow) reads it.
	roActive activeSet

	// roEpoch[i] is slot i's published snapshot lower bound while its roActive
	// bit is set: a provisional epoch stored before the bit (see beginSnapshot
	// for the ordering argument), never above the snapshot the reader actually
	// captures. Kept out of slot so the request array's hand-tuned layout is
	// untouched.
	roEpoch []padded.Uint64

	// partMask[k] masks active's words down to invalidation partition k
	// (slots with invalServer == k); allSlots is every slot, the scope of an
	// unpartitioned scan. Built once at construction; every stream's server k
	// scans the same slot partition. partMask is empty without partitions.
	partMask []slotMask
	allSlots slotMask

	// mu is the Mutex engine's global lock, the paper's coarse-grained
	// strawman (Figure 1(b)): Tx.begin takes it for a direct attempt and
	// Thread.endTx releases it, so a whole atomic block runs under it, with
	// no conflicts and no aborts. Writes are still buffered, so a user abort
	// rolls back as on every engine.
	mu sync.Mutex

	// rinval is the RInval engines' server side, nil otherwise: the System
	// starts its servers and folds their stats, and Tx.finishCommit hands it
	// every writer unless clients commit themselves.
	rinval *remoteEngine

	// The inputs of attemptKind, fixed at construction; with the attempt's
	// kind they pick every read and commit. baseKind is the engine's kind:
	// validated (TL2), invisible (NOrec, which has no visible read), direct
	// (Mutex) or visible (the invalidation engines).
	// clientsCommit is true where the clients commit their solo and invisible
	// attempts themselves: always for NOrec and InvalSTM, and for RInval where
	// its servers share the clients' Ps (coolServers).
	baseKind      attemptKind
	clientsCommit bool

	// tracer records lifecycle events when cfg.Trace is set; nil otherwise.
	// Actors 0..MaxThreads-1 are the client slots; engines append their
	// server tracks at construction.
	tracer *obs.Tracer

	// attr is the conflict-attribution state when cfg.Attribution is set;
	// nil otherwise, which makes every record call a no-op (same discipline
	// as the trace rings).
	attr *obs.Attribution

	// lat is the critical-path latency recorder when cfg.Latency is set; nil
	// otherwise (nil-receiver no-op discipline, like attr and the rings).
	// Cells: client slot i records into lat.Client(i); shard j's
	// commit-server into lat.Server(j); its invalidation-server k into
	// lat.Server(Shards + j*nInvalPerShard + k).
	lat *obs.LatencyRecorder

	// tseries is the windowed telemetry engine when cfg.TimeSeries > 0; nil
	// otherwise (nil-receiver no-op discipline, like attr and lat). tsStop
	// ends its sampler goroutine: a dedicated channel rather than the stop
	// flag so Close interrupts the tick sleep instead of waiting out the
	// interval. flight is the sampler's flight-check memory when
	// cfg.FlightRecorder is set (which implies TimeSeries); nil otherwise.
	tseries *obs.TimeSeries
	tsStop  chan struct{}
	flight  *flightState

	regMu     sync.Mutex
	freeSlots []int
	live      map[*Thread]struct{}
	retired   Stats
	closed    bool
	// nLive is len(live), for readers that do not take regMu.
	nLive atomic.Int32

	stop padded.Bool
	wg   sync.WaitGroup
}

// New constructs a System and starts any server goroutines its engine needs.
// The caller must Close it to stop the servers.
func New(cfg Config) (*System, error) {
	s, err := newSystem(cfg)
	if err != nil {
		return nil, err
	}
	s.startServers()
	return s, nil
}

// newSystem builds a System without starting its servers. Tests drive the
// server routines directly for deterministic epoch-level assertions.
func newSystem(cfg Config) (*System, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:  cfg,
		live: make(map[*Thread]struct{}),
	}
	s.shardMask = uint64(cfg.Shards - 1)
	cool := coolServers()
	s.nInvalPerShard = partitionsPerStream(cfg, cool)
	s.slots = make([]slot, cfg.MaxThreads)
	s.active = newActiveSet(cfg.MaxThreads)
	s.nVers = cfg.Versions
	if s.nVers > 0 {
		s.roActive = newActiveSet(cfg.MaxThreads)
		s.roEpoch = make([]padded.Uint64, cfg.MaxThreads)
	}
	s.partMask = make([]slotMask, s.nInvalPerShard)
	for k := range s.partMask {
		s.partMask[k] = newSlotMask(cfg.MaxThreads)
	}
	s.allSlots = newSlotMask(cfg.MaxThreads)
	s.freeSlots = make([]int, 0, cfg.MaxThreads)
	for i := range s.slots {
		s.slots[i].readBF = bloom.NewAtomic(cfg.Bloom)
		s.slots[i].selfMask = newSlotMask(cfg.MaxThreads)
		s.slots[i].selfMask.set(i)
		if s.nInvalPerShard > 0 {
			s.slots[i].invalServer = i % s.nInvalPerShard
			s.partMask[s.slots[i].invalServer].set(i)
		}
		s.allSlots.set(i)
		s.freeSlots = append(s.freeSlots, cfg.MaxThreads-1-i)
	}

	s.streams = make([]commitStream, cfg.Shards)
	for j := range s.streams {
		s.streams[j].invalTS = make([]padded.Uint64, s.nInvalPerShard)
		s.streams[j].partOwner = make([]padded.Uint32, s.nInvalPerShard)
	}

	if cfg.Trace {
		// Client tracks first (track i == slot i); engine constructors
		// append their server tracks below.
		s.tracer = obs.NewTracer(cfg.TraceEvents)
		for i := 0; i < cfg.MaxThreads; i++ {
			s.tracer.AddActor(fmt.Sprintf("client-%d", i))
		}
	}
	if cfg.Attribution {
		s.attr = obs.NewAttribution(cfg.MaxThreads, attrReservoirSize, cfg.Seed)
	}
	if cfg.Latency {
		// Before engine construction: the shard servers capture their cells.
		// Server cells are allocated for every engine (the non-RInval ones
		// simply leave theirs empty).
		s.lat = obs.NewLatencyRecorder(cfg.MaxThreads,
			cfg.Shards*(1+s.nInvalPerShard), cfg.LatencySampleEvery)
	}
	if cfg.TimeSeries > 0 {
		s.tseries = obs.NewTimeSeries(cfg.TimeSeries, cfg.TimeSeriesInterval, cfg.SLOs)
	}
	if cfg.FlightRecorder {
		s.flight = &flightState{
			pending: make([]bool, cfg.MaxThreads),
			lagging: make([]uint64, cfg.Shards*s.nInvalPerShard),
		}
	}

	// TL2 keeps the zero values: every attempt validated, committed by the
	// client itself (tl2Commit).
	switch cfg.Algo {
	case Mutex:
		s.baseKind = kindDirect
	case NOrec:
		s.baseKind, s.clientsCommit = kindInvisible, true
	case InvalSTM:
		s.baseKind, s.clientsCommit = kindVisible, true
	case RInvalV1, RInvalV2, RInvalV3:
		s.rinval = newRemoteEngine(s)
		s.baseKind, s.clientsCommit = kindVisible, cool
	}
	return s, nil
}

// startServers launches the engine's server goroutines, each labeled with
// its task name so CPU/goroutine profiles attribute server time separately
// from client time.
func (s *System) startServers() {
	if s.tseries != nil {
		// Baseline on the caller's goroutine: taken by the sampler, a commit
		// that finished before the sampler was first scheduled would be
		// folded into the delta base and lost from the first window.
		s.tsTick(time.Now().UnixNano())
		s.tsStop = make(chan struct{})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			pprof.Do(context.Background(), pprof.Labels("stm-role", "timeseries-sampler"),
				func(context.Context) { s.tsLoop() })
		}()
	}
	if s.rinval == nil {
		return
	}
	for _, task := range s.rinval.serverTasks() {
		s.wg.Add(1)
		go func(t serverTask) {
			defer s.wg.Done()
			pprof.Do(context.Background(), pprof.Labels("stm-role", t.name),
				func(context.Context) { t.run(s.stop.Load) })
		}(task)
	}
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Algo returns the engine selection.
func (s *System) Algo() Algo { return s.cfg.Algo }

// Close stops the server goroutines and retires the system. All registered
// threads must be closed and no transaction may be in flight. Close is
// idempotent.
func (s *System) Close() error {
	s.regMu.Lock()
	if s.closed {
		s.regMu.Unlock()
		return nil
	}
	if len(s.live) != 0 {
		s.regMu.Unlock()
		return fmt.Errorf("core: Close with %d threads still registered", len(s.live))
	}
	s.closed = true
	s.regMu.Unlock()

	s.stop.Store(true)
	if s.tsStop != nil {
		close(s.tsStop)
	}
	s.wg.Wait()
	return nil
}

// Register claims a request slot and returns a Thread bound to it. Each
// Thread must be used by one goroutine at a time and released with
// Thread.Close. Register fails when MaxThreads threads are already live.
func (s *System) Register() (*Thread, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: Register on closed System")
	}
	if len(s.freeSlots) == 0 {
		return nil, fmt.Errorf("core: all %d slots in use", s.cfg.MaxThreads)
	}
	idx := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	sl := &s.slots[idx]
	th := &Thread{
		sys:  s,
		idx:  idx,
		slot: sl,
	}
	th.tx = Tx{
		sys:   s,
		th:    th,
		slot:  sl,
		ws:    newWriteSet(s.cfg.Bloom),
		stats: &th.stats,
	}
	sl.req.ws = th.tx.ws // before any request of this thread's can be PENDING
	if s.tracer != nil {
		th.tx.ring = s.tracer.Ring(idx)
	}
	// Whole cache lines: an invisible attempt writes its snapshot at begin
	// and on every extension, while another Thread's, allocated next to it,
	// is read on each of that Thread's loads.
	const perLine = padded.CacheLineSize / 8
	th.tx.snap = make([]uint64, s.cfg.Shards, (s.cfg.Shards+perLine-1)/perLine*perLine)
	th.tx.lat = s.lat.Client(idx) // nil cell when Latency is off
	if s.attr != nil {
		// The thread's reusable unsampled killer descriptor: immutable, so
		// victims may read it long after the commit that published it.
		th.tx.attrKD = &killDesc{committer: idx}
	}
	s.live[th] = struct{}{}
	s.nLive.Add(1)
	return th, nil
}

// MustRegister is Register that panics on error, for tests and examples.
func (s *System) MustRegister() *Thread {
	th, err := s.Register()
	if err != nil {
		panic(err)
	}
	return th
}

// release returns a thread's slot to the free pool and folds its stats into
// the system's retired aggregate.
func (s *System) release(th *Thread) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if _, ok := s.live[th]; !ok {
		return
	}
	delete(s.live, th)
	s.nLive.Add(-1)
	s.freeSlots = append(s.freeSlots, th.idx)
	s.retired.Add(th.stats)
}

// Stats aggregates statistics from retired threads, live threads, and what
// only the servers count: Invalidations, Epochs, CrossShardCommits,
// BatchSizes and Server. Commits is the clients' count alone. Safe to call at
// any time, including while threads are running transactions and before or
// after Close: every counter is read atomically (each individually; the
// aggregate is not a single instant).
func (s *System) Stats() Stats {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	agg := s.retired
	for th := range s.live {
		agg.Add(th.stats.snapshotAtomic())
	}
	if s.rinval != nil {
		// The epoch drivers' Commits are the clients' own commits seen from
		// the stream side, already counted above.
		srv := s.rinval.serverStats()
		srv.Commits = 0
		agg.Add(srv)
	}
	return agg
}

// Timestamp returns the current global timestamp — shard 0's stream when
// sharding is on (for tests and diagnostics).
func (s *System) Timestamp() uint64 { return s.streams[0].ts.Load() }

// Shards returns the effective shard count.
func (s *System) Shards() int { return len(s.streams) }

// ShardServerStats returns one Stats per commit stream — shard j's epoch
// drivers' activity folded with its invalidation-servers', including the
// per-epoch histograms and cross-shard-commit count. Only the RInval engines
// have shard servers; other engines return nil. Safe to call while
// transactions run (atomic loads and histogram snapshots).
func (s *System) ShardServerStats() []Stats {
	if s.rinval == nil {
		return nil
	}
	out := make([]Stats, len(s.rinval.srv))
	for j, sv := range s.rinval.srv {
		out[j] = sv.stats()
	}
	return out
}

// shardOf returns the index of the commit stream that owns v.
//
//stm:hotpath
func (s *System) shardOf(v *Var) int { return int(v.key.H1 & s.shardMask) }

// VarShard returns the index of the commit stream that owns v — which
// commit-server serializes writes to it. Always 0 when Shards == 1. Exposed
// so benchmarks and tests can construct shard-pinned (or deliberately
// cross-shard) working sets.
func (s *System) VarShard(v *Var) int { return s.shardOf(v) }

// lockStream acquires shard j's stream lock, spinning until the current
// holder releases it. The holder is the stream's epoch driver and owns its
// shardServer's scratch until unlockStream. Waiting acquisition goes through
// lockStreams, which fixes the order.
//
//stm:hotpath
func (s *System) lockStream(j int) {
	st := &s.streams[j]
	var w spin.Waiter
	for !st.owner.CompareAndSwap(0, 1) {
		w.Wait()
	}
}

// tryLockStream acquires shard j's stream lock only if it is free right now
// and reports whether it did. The plain load comes first so a caller that
// finds the stream busy — the common case when a commit-server owns a core —
// leaves the owner line in shared state instead of issuing a failing CAS.
//
//stm:hotpath
func (s *System) tryLockStream(j int) bool {
	o := &s.streams[j].owner
	return o.Load() == 0 && o.CompareAndSwap(0, 1)
}

// unlockStream releases shard j's stream lock.
//
//stm:hotpath
func (s *System) unlockStream(j int) { s.streams[j].owner.Store(0) }

// tryLockPartition acquires partition k's lock on shard j's stream only if it
// is free right now and reports whether it did; like tryLockStream, a busy
// lock costs a plain load. The holder owns the partition's scan of that
// stream — invalTS[k] and the invalidation-server's trace ring and latency
// cell — until unlockPartition.
//
//stm:hotpath
func (s *System) tryLockPartition(j, k int) bool {
	o := &s.streams[j].partOwner[k]
	return o.Load() == 0 && o.CompareAndSwap(0, 1)
}

// unlockPartition releases partition k's lock on shard j's stream.
//
//stm:hotpath
func (s *System) unlockPartition(j, k int) { s.streams[j].partOwner[k].Store(0) }

// lockStreams acquires the stream lock of every shard in mask in ascending
// shard order. Every waiting acquisition takes this one route, so concurrent
// multi-stream drivers share a total order and cannot deadlock (DESIGN.md
// §11).
//
//stm:hotpath
func (s *System) lockStreams(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.lockStream(bits.TrailingZeros64(m))
	}
}

// unlockStreams releases the stream locks in mask in descending shard order,
// the reverse of lockStreams.
//
//stm:hotpath
func (s *System) unlockStreams(mask uint64) {
	for m := mask; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		s.unlockStream(j)
	}
}

// lockTimestamp waits until shard j's timestamp is even, raises it odd and
// returns the even value: an inline commit's lock (Tx.lockTouched).
//
//stm:hotpath
func (s *System) lockTimestamp(j int) uint64 {
	ts := &s.streams[j].ts
	var w spin.Waiter
	for {
		if t := ts.Load(); t&1 == 0 && ts.CompareAndSwap(t, t+1) {
			return t
		}
		w.Wait()
	}
}

// releaseTouched lowers the timestamps of the streams in touched, which the
// caller raised odd, in descending shard order, the reverse of lockTouched's.
//
//stm:hotpath
func (s *System) releaseTouched(touched, writes uint64) {
	for m := touched; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		s.unlockTimestamp(writes&(1<<uint(j)) != 0, j)
	}
}

// unlockTimestamp lowers shard j's odd timestamp to the next even value if
// the holder wrote the stream, else back to the value it was taken from.
//
//stm:hotpath
func (s *System) unlockTimestamp(wrote bool, j int) {
	d := ^uint64(0)
	if wrote {
		d = 1
	}
	s.streams[j].ts.Add(d)
}

// Tracer returns the lifecycle event tracer, or nil when Config.Trace is
// off. Export methods (WriteChromeTrace, Summary) must only be called after
// the recording goroutines have quiesced — after Close, or with all threads
// idle.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// writeBack publishes every buffered version of ws. With Versions off this is
// exactly the seed's bare loop (one storeBox per entry, nothing else touches
// the hot path); with Versions on, each cell is first stamped with its owning
// stream's timestamp — odd at this point, uniquely identifying the epoch — and
// appended to its Var's history ring, trimming entries below the GC floor in
// the same pass. The caller must hold the write-back right for every written
// stream (timestamp odd, or the global mutex with streams[0] raised odd).
//
//stm:hotpath
func (s *System) writeBack(ws *writeSet) {
	if s.nVers == 0 {
		ws.writeBack()
		return
	}
	floor := s.roFloorNow()
	for _, e := range ws.entries {
		e.b.epoch = s.streams[s.shardOf(e.v)].ts.Load()
		e.v.appendVersion(e.b, s.nVers, floor)
		e.v.storeBox(e.b)
	}
}

// roFloorNow returns the version-GC floor: no live snapshot reader resolves a
// Load below it, so history entries strictly older than the newest entry at
// or below the floor are reclaimable. It is the minimum of (a) every stream's
// current rounded-down timestamp — the snapshot any reader beginning from now
// on captures at least — and (b) every live reader's published epoch bound.
// The timestamps are read FIRST: a reader that our bitmap scan misses (bit
// not yet set) publishes its provisional epoch before the bit and captures a
// snapshot at or above that epoch, which is itself at or above the timestamp
// value we already read — monotonicity makes the early read a lower bound.
//
//stm:hotpath
func (s *System) roFloorNow() uint64 {
	floor := ^uint64(0)
	for j := range s.streams {
		if t := s.streams[j].ts.Load() &^ 1; t < floor {
			floor = t
		}
	}
	for w := range s.roActive.words {
		b := s.roActive.words[w].Load()
		for b != 0 {
			if e := s.roEpoch[nextSlot(w, &b)].Load(); e < floor {
				floor = e
			}
		}
	}
	return floor
}

// captureSnapshot fills dst (length Shards) with a consistent per-shard epoch
// vector: a cut no commit's write-back straddles. With one shard any even
// value works — rounding an odd timestamp down names the last epoch whose
// write-back fully preceded the odd transition we observed. With several
// shards a single pass can tear across a cross-shard commit, so the vector is
// double-collected: two ascending passes that must both see every stream even
// and unchanged. That suffices because a cross-shard epoch raises its streams
// odd in ascending order and lowers them in descending order — the lowest
// participating stream's odd window encloses the others — so a commit whose
// write-back overlapped the first pass either shows odd on some stream or
// changes a timestamp between the passes. false after the retry budget means
// the caller should fall back to the regular path rather than spin against a
// saturated commit pipeline.
//
//stm:hotpath
func (s *System) captureSnapshot(dst []uint64) bool {
	if len(s.streams) == 1 {
		dst[0] = s.streams[0].ts.Load() &^ 1
		return true
	}
	var w spin.Waiter
	for attempt := 0; attempt < 8; attempt++ {
		stable := true
		for j := range s.streams {
			t := s.streams[j].ts.Load()
			if t&1 != 0 {
				stable = false
				break
			}
			dst[j] = t
		}
		if stable {
			for j := range s.streams {
				if s.streams[j].ts.Load() != dst[j] {
					stable = false
					break
				}
			}
		}
		if stable {
			return true
		}
		w.Wait()
	}
	return false
}

// invalidate dooms every in-flight transaction in scope and outside the skip
// set whose read signature intersects bf. It returns the number of
// transactions doomed. Used inline over allSlots by InvalSTM (skip = the
// committer's selfMask) and RInvalV1's epoch driver (skip = the epoch's batch
// members), and over partMask[k] by partition k's scanners. Every stream's
// partition k covers the same slots; concurrent scans from different streams
// are safe because the doom CAS is epoch-guarded and idempotent. Each doom is
// recorded on the invalidator's trace ring (nil when tracing is off).
//
// The default path is the two-level scan: level 0 iterates only the slots
// whose active bit is set (word load + TrailingZeros64, cost proportional to
// in-flight transactions), level 1 rejects a non-conflicting slot by loading
// only the read-filter words bf occupies (slot.conflictWord). Both levels are
// conservative — they may pass a slot the full check would reject, never
// skip a true conflict — so the doom decision is still made exactly where it
// was at seed.
//
//stm:hotpath
func (s *System) invalidate(scope, skip slotMask, bf *bloom.Filter, ring *obs.Ring, kd *killDesc) uint64 {
	var doomed uint64
	for w := range s.active.words {
		b := s.active.words[w].Load() & scope[w] &^ skip[w]
		for b != 0 {
			doomed += s.invalidateSlot(nextSlot(w, &b), bf, ring, kd)
		}
	}
	return doomed
}

// invalidateSlot dooms the transaction in slot i, whose active bit was
// observed, if slot.conflictWord finds its read signature meets bf.
//
//stm:hotpath
func (s *System) invalidateSlot(i int, bf *bloom.Filter, ring *obs.Ring, kd *killDesc) uint64 {
	sl := &s.slots[i]
	w, conflict := sl.conflictWord(bf)
	if !conflict {
		return 0
	}
	// Publish the killer descriptor before the doom CAS: a victim that
	// observes its doom (same seq-cst order) also observes the descriptor.
	// If the CAS fails the stale store is harmless — the victim only reads
	// the mailbox when it actually aborts, and begin clears it.
	if kd != nil {
		sl.killer.Store(kd)
	}
	if sl.tryInvalidate(w) {
		ring.Instant(obs.KInval, uint64(i))
		return 1
	}
	return 0
}

// appendPendingCandidates appends to buf the indices (>= from, ascending) of
// every slot that may hold a PENDING commit request, for the commit-server's
// collection scan. A requester is ALIVE for the whole PENDING window and its
// active bit is set before the request can be published (begin precedes
// commit), so the bitmap is a conservative superset of the pending set; the
// caller re-checks state on each candidate.
//
//stm:hotpath
func (s *System) appendPendingCandidates(buf []int, from int) []int {
	for w := from >> 6; w < len(s.active.words); w++ {
		b := s.active.words[w].Load()
		if w == from>>6 {
			b &= ^uint64(0) << (uint(from) & 63)
		}
		for b != 0 {
			buf = append(buf, nextSlot(w, &b))
		}
	}
	return buf
}
