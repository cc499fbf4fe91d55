// Package stm is the public API of the RInval software transactional memory
// library — a Go reproduction of "Remote Invalidation: Optimizing the
// Critical Path of Memory Transactions" (Hassan, Palmieri, Ravindran,
// IPDPS 2014).
//
// # Quick start
//
//	sys, _ := stm.New(stm.Config{Algo: stm.RInvalV2})
//	defer sys.Close()
//
//	acct := stm.NewVar(100)
//
//	th, _ := sys.Register()
//	defer th.Close()
//	_ = th.Atomically(func(tx *stm.Tx) error {
//		balance := acct.Load(tx)
//		acct.Store(tx, balance-30)
//		return nil
//	})
//
// Seven engines share this API (see Algo): a global-mutex baseline, NOrec
// (validation-based), InvalSTM (commit-time invalidation), the paper's
// three Remote Invalidation variants, which execute commit and invalidation
// on dedicated server goroutines with cache-aligned client/server mailboxes,
// and TL2 (per-location versioned locks), the fine-grained baseline.
//
// # Concurrency model
//
// A System may serve any number of goroutines; each goroutine claims a
// Thread (a slot in the cache-aligned requests array) and runs transactions
// through it. Transaction bodies may be re-executed after conflicts, so they
// must confine side effects to Var operations. All engines guarantee opacity:
// a transaction body never observes an inconsistent snapshot, even on
// attempts that later abort.
package stm

import (
	"unsafe"

	"github.com/ssrg-vt/rinval/internal/core"
	"github.com/ssrg-vt/rinval/internal/obs"
)

// Config parameterizes a System. The zero value selects Mutex with 64
// threads; see the field documentation on the aliased type.
type Config = core.Config

// Algo selects the concurrency-control engine.
type Algo = core.Algo

// Engine selections (see the package documentation for their semantics).
const (
	Mutex    = core.Mutex
	NOrec    = core.NOrec
	InvalSTM = core.InvalSTM
	RInvalV1 = core.RInvalV1
	RInvalV2 = core.RInvalV2
	RInvalV3 = core.RInvalV3
	TL2      = core.TL2
)

// Algos lists every engine in presentation order.
var Algos = core.Algos

// ParseAlgo converts an engine name ("norec", "rinval-v2", ...) to an Algo.
func ParseAlgo(s string) (Algo, error) { return core.ParseAlgo(s) }

// Stats aggregates transactional activity; see the field documentation on
// the aliased type.
type Stats = core.Stats

// AbortReason classifies why a transaction attempt aborted; see
// Stats.AbortReasons.
type AbortReason = core.AbortReason

// Abort reasons. The conflict reasons (the first three) sum to Stats.Aborts;
// AbortExplicit counts user aborts, which Stats.Aborts excludes.
const (
	AbortInvalidated = core.AbortInvalidated
	AbortValidation  = core.AbortValidation
	AbortLocked      = core.AbortLocked
	AbortExplicit    = core.AbortExplicit
	NumAbortReasons  = core.NumAbortReasons
)

// Tracer is the lifecycle-event trace collected when Config.Trace is set;
// see System.Tracer.
type Tracer = obs.Tracer

// ConflictReport is the conflict-attribution snapshot collected when
// Config.Attribution is set: the who-aborted-whom matrix, wasted work per
// abort reason, the bloom false-positive estimate, and the top-K hot-var
// table. See System.ConflictReport.
type ConflictReport = obs.ConflictReport

// HotVar is one entry of ConflictReport's contended-variable table.
type HotVar = obs.HotVar

// LatencyReport is the critical-path latency decomposition collected when
// Config.Latency is set: per-phase histograms and quantiles for sampled
// client transactions (app work, retry, commit-wait, end-to-end) and for
// every commit/invalidation-server epoch (collect, scan, inval-wait,
// write-back, reply, plus the cross-shard lock-wait and drain phases).
// See System.LatencyReport.
type LatencyReport = obs.LatencyReport

// LatencyPhase is one phase row of a LatencyReport.
type LatencyPhase = obs.LatencyPhase

// NamedHistogram is one exported histogram family child (name + label set +
// data); see System.ServerPhaseHistograms.
type NamedHistogram = obs.NamedHistogram

// TimeSeriesReport is the windowed-telemetry view collected when
// Config.TimeSeries is set: rates and moving quantiles over trailing
// windows, sparkline-ready recent windows, and the SLO burn-rate/alert
// state. See System.TimeSeriesReport.
type TimeSeriesReport = obs.TimeSeriesReport

// TSWindowReport is one window of a TimeSeriesReport; SLOAlert and
// SLOStatus are the objective evaluation entries it carries.
type (
	TSWindowReport = obs.TSWindowReport
	SLOAlert       = obs.SLOAlert
	SLOStatus      = obs.SLOStatus
)

// SLO declares one service-level objective for Config.SLOs; SLOKind selects
// what it constrains.
type (
	SLO     = obs.SLO
	SLOKind = obs.SLOKind
)

// SLO kinds (see the obs package for the burn-rate semantics).
const (
	SLOAbortRate  = obs.SLOAbortRate
	SLOLatencyP99 = obs.SLOLatencyP99
)

// DefaultTimeSeriesWindows is the ring capacity Config.TimeSeries defaults
// to when SLOs are declared, or FlightRecorder is set, without an explicit
// window count.
const DefaultTimeSeriesWindows = core.DefaultTimeSeriesWindows

// System is one STM instance: a global timestamp domain, a cache-aligned
// requests array, and (for the RInval engines) the commit/invalidation
// server goroutines.
type System struct {
	sys *core.System
}

// New constructs a System and starts its server goroutines (if the selected
// engine uses any). Close it when done.
func New(cfg Config) (*System, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Register claims a request slot for the calling goroutine's use. Fails when
// Config.MaxThreads threads are already registered.
func (s *System) Register() (*Thread, error) {
	th, err := s.sys.Register()
	if err != nil {
		return nil, err
	}
	return &Thread{th: th}, nil
}

// MustRegister is Register that panics on error.
func (s *System) MustRegister() *Thread {
	th, err := s.Register()
	if err != nil {
		panic(err)
	}
	return th
}

// Close stops the server goroutines. All Threads must be closed first.
func (s *System) Close() error { return s.sys.Close() }

// Stats aggregates statistics across all threads and the servers, before and
// after Close. Safe to call while transactions run: each counter is read
// atomically, though the aggregate is not a single instant.
func (s *System) Stats() Stats { return s.sys.Stats() }

// Algo returns the engine this system runs.
func (s *System) Algo() Algo { return s.sys.Algo() }

// Tracer returns the lifecycle-event trace, or nil when Config.Trace is
// unset. Export it (WriteChromeTrace, Summary) only after the system has
// quiesced — after Close, or with all threads idle.
func (s *System) Tracer() *Tracer { return s.sys.Tracer() }

// ConflictReport returns the conflict-attribution snapshot. Safe to call
// while transactions run; with Config.Attribution unset the report carries
// only the Stats totals and Enabled=false.
func (s *System) ConflictReport() ConflictReport { return s.sys.ConflictReport() }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.sys.Config() }

// Shards returns the effective commit-stream count (Config.Shards after
// validation; 1 unless sharding was requested).
func (s *System) Shards() int { return s.sys.Shards() }

// ShardServerStats returns one Stats per commit stream — shard j's
// epoch drivers' counters folded with its invalidation-servers', including
// the per-epoch histograms and the cross-shard-commit count. Nil for
// engines without shard servers (everything but RInval). Safe to call while
// transactions run.
func (s *System) ShardServerStats() []Stats { return s.sys.ShardServerStats() }

// LatencyReport returns the critical-path latency decomposition. Safe to
// call while transactions run (the recorder's cells are single-writer
// atomics); with Config.Latency unset the report carries Enabled=false and
// empty phases.
func (s *System) LatencyReport() LatencyReport { return s.sys.LatencyReport() }

// ServerPhaseHistograms returns the commit streams' per-epoch histograms
// (queue depth, step-ahead occupancy, batch size) as exportable OpenMetrics
// histogram children, one set per shard. Safe to call while transactions
// run. The epochs' phase durations are LatencyReport's server phases.
func (s *System) ServerPhaseHistograms() []NamedHistogram {
	return s.sys.ServerPhaseHistograms()
}

// TimeSeriesReport returns the windowed-telemetry view. Safe to call while
// transactions run; Enabled=false when Config.TimeSeries is off.
func (s *System) TimeSeriesReport() TimeSeriesReport { return s.sys.TimeSeriesReport() }

// DumpFlightBundle writes a flight-recorder bundle (latency report, conflict
// report, windowed telemetry, trace-ring snapshots, goroutine stacks) to
// Config.FlightDir and returns the file path. Safe while transactions run;
// this is the same dump Config.FlightRecorder writes when an SLO burn alert
// rises or the stall watchdog trips, exposed for operator-initiated snapshots.
func (s *System) DumpFlightBundle(reason string) (string, error) {
	return s.sys.DumpFlightBundle(reason)
}

// ShardOf returns the index of the commit stream that owns v under s —
// which commit-server serializes writes to it (always 0 when Shards == 1).
// A package-level function rather than a Var method because methods cannot
// introduce type parameters.
func ShardOf[T any](s *System, v *Var[T]) int { return s.sys.VarShard(&v.v) }

// Thread is a registered participant: one entry of the cache-aligned
// requests array. Use from a single goroutine at a time.
type Thread struct {
	th *core.Thread
}

// Atomically executes fn as a transaction, retrying until it commits. A
// non-nil error from fn aborts the transaction (discarding its writes) and
// is returned.
//
// The wrapper Tx is a local of this call, not Thread state: parking the
// *core.Tx in a long-lived struct would let it outlive the atomic block it
// is only valid inside (stmlint's tx-escape check rejects exactly that).
// Retries reuse the same local, so the cost is one allocation per call, not
// per attempt. No engine yields to the scheduler at a transaction boundary:
// only a wait inside the call — for an even timestamp, a lock or a commit
// reply — backs off by yielding, then sleeping (DESIGN.md §3).
func (t *Thread) Atomically(fn func(*Tx) error) error {
	var tx Tx
	return t.th.Atomically(func(inner *core.Tx) error {
		tx.inner = inner
		return fn(&tx)
	})
}

// AtomicallyRO executes fn as a read-only transaction. With Config.Versions
// set, fn reads a consistent multi-version snapshot and can never abort or
// appear in an invalidation scan (a reader the writers lap re-runs once on
// the regular path — see Stats.ROFallbacks); with Versions unset it behaves
// like Atomically. fn must not Store (it panics); a non-nil error from fn is
// returned as a user abort, as in Atomically.
func (t *Thread) AtomicallyRO(fn func(*Tx) error) error {
	var tx Tx
	return t.th.AtomicallyRO(func(inner *core.Tx) error {
		tx.inner = inner
		return fn(&tx)
	})
}

// Close releases the thread's slot.
func (t *Thread) Close() { t.th.Close() }

// ID returns the thread's slot index.
func (t *Thread) ID() int { return t.th.ID() }

// Stats returns this thread's counters.
func (t *Thread) Stats() Stats { return t.th.Stats() }

// Tx is a transaction handle, valid only inside the Atomically callback that
// received it. Access Vars through their Load/Store methods.
type Tx struct {
	inner *core.Tx
}

// Attempt returns the 1-based attempt number of the current execution.
func (tx *Tx) Attempt() int { return tx.inner.Attempt() }

// Var is a transactional memory cell holding a T. Values stored in a Var
// should be immutable or treated as such: a transaction that mutates a
// loaded pointer/slice in place bypasses conflict detection.
//
// A Var is one object: core's Var, held by value, so a Load goes from the
// Var straight to its current cell. Create one with NewVar, or embed it in a
// struct and initialize it with InitVar. A Var must not be copied once
// initialized — its address is the location the engines track (go vet's
// copylocks check reports such a copy).
type Var[T any] struct {
	v core.Var
}

// cell is one version of a Var[T]: the engines' header first, then the value,
// in one allocation. A cell is private to the transaction that allocated it
// until its commit publishes it, and immutable afterwards.
type cell[T any] struct {
	core.Box
	val T
}

func newCell[T any](val T) *core.Box { return &(&cell[T]{val: val}).Box }

// cellOf recovers the cell whose header is b (offset 0). Every cell a Var[T]
// hands to core is a cell[T], and core hands back only those.
//
//stm:hotpath
func cellOf[T any](b *core.Box) *cell[T] { return (*cell[T])(unsafe.Pointer(b)) }

// NewVar returns a Var initialized to initial. It costs two allocations: the
// Var and its first cell.
func NewVar[T any](initial T) *Var[T] {
	v := new(Var[T])
	InitVar(v, initial)
	return v
}

// InitVar initializes the zero Var v to initial, in place: a struct that holds
// its Vars by value is one allocation, plus one cell per Var. v must be a zero
// Var — InitVar panics on a Var already initialized — and must not be copied
// afterwards.
func InitVar[T any](v *Var[T], initial T) { v.v.InitBox(newCell(initial)) }

// NewVarNamed returns a Var labeled for conflict attribution: the name
// appears in ConflictReport's hot-var table and on the stmtop dashboard in
// place of the raw Var id. The label costs one registry insert at
// construction and nothing on any hot path.
func NewVarNamed[T any](initial T, name string) *Var[T] {
	v := NewVar(initial)
	v.v.SetName(name)
	return v
}

// VarName returns the label a Var id was given via NewVarNamed, or "".
func VarName(id uint64) string { return core.VarName(id) }

// Load returns the transaction's view of the Var.
func (v *Var[T]) Load(tx *Tx) T {
	return cellOf[T](tx.inner.LoadBox(&v.v)).val
}

// Store buffers a write; it becomes visible atomically when tx commits. It
// costs one allocation, the cell, unless an aborted attempt of the same
// transaction stored to v: its cell was never published and is reused.
func (v *Var[T]) Store(tx *Tx, val T) {
	if b := tx.inner.SpareBox(&v.v); b != nil {
		cellOf[T](b).val = val
		tx.inner.StoreBox(&v.v, b)
		return
	}
	tx.inner.StoreBox(&v.v, newCell(val))
}

// Peek returns the committed value without transactional protection — for
// quiescent inspection (setup, teardown, assertions) only.
func (v *Var[T]) Peek() T { return cellOf[T](v.v.PeekBox()).val }

// Set replaces the committed value without transactional protection — for
// quiescent setup only.
func (v *Var[T]) Set(val T) { v.v.SetBox(newCell(val)) }

// ID returns the Var's stable identity (used by bloom signatures).
func (v *Var[T]) ID() uint64 { return v.v.ID() }

// Modify applies f to the Var's current value inside tx and stores the
// result — the read-modify-write idiom in one call.
func (v *Var[T]) Modify(tx *Tx, f func(T) T) {
	v.Store(tx, f(v.Load(tx)))
}
