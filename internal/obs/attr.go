package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"github.com/ssrg-vt/rinval/internal/padded"
)

// This file is the conflict-attribution substrate: who-aborted-whom counters,
// bloom false-positive accounting, hot-var sampling, and wasted-work totals.
// Like the trace rings, everything here is nil-receiver-safe: internal/core
// holds a nil *Attribution when Config.Attribution is off, so every record
// site on the transaction hot path compiles down to a nil check.
//
// Concurrency model: slot i's thread is the only writer of slot i's row,
// reservoir, and wasted-work counters, but ConflictReport may be sampled
// while transactions run, so every mutable word is accessed atomically
// (single-writer atomics: no CAS loops needed, plain atomic add/store).

// ConflictMatrix counts invalidation aborts per (committer slot, victim
// slot) pair — the only abort reason with a well-defined "whom". One extra
// committer index — Unknown() — absorbs invalidation aborts whose killer
// descriptor was lost to a racing doomer, so the full matrix sum stays
// exactly the taxonomy's AbortInvalidated count (the victim increments one
// cell per invalidation abort, no more, no less).
//
// Layout: one row per victim, since the victim's abort path is the writer
// (see DESIGN.md §10 for why attribution records there); rows are padded to
// whole cache lines so two victims' counters never share a line.
type ConflictMatrix struct {
	slots  int
	stride int // row length in uint64 words, a cache-line multiple
	cells  []uint64
}

// NewConflictMatrix returns a zeroed slots x (slots+1) matrix.
func NewConflictMatrix(slots int) *ConflictMatrix {
	const wordsPerLine = padded.CacheLineSize / 8
	stride := (slots + 1 + wordsPerLine - 1) / wordsPerLine * wordsPerLine
	return &ConflictMatrix{
		slots:  slots,
		stride: stride,
		cells:  make([]uint64, slots*stride),
	}
}

// Slots returns the number of victim slots (and of real committer slots).
func (m *ConflictMatrix) Slots() int {
	if m == nil {
		return 0
	}
	return m.slots
}

// Unknown returns the committer index used when no committer slot is known.
func (m *ConflictMatrix) Unknown() int { return m.slots }

// Record counts one abort of victim by committer (Unknown() for none).
// Victim's thread is the only writer of victim's row; the add is atomic so
// concurrent Snapshot reads are race-free.
//
//stm:hotpath
func (m *ConflictMatrix) Record(committer, victim int) {
	if m == nil {
		return
	}
	atomic.AddUint64(&m.cells[victim*m.stride+committer], 1)
}

// Snapshot returns the matrix as [committer][victim] counts — the
// who-aborted-whom orientation reports use — with the Unknown committer as
// the final row. Safe to call while victims are recording.
func (m *ConflictMatrix) Snapshot() [][]uint64 {
	if m == nil {
		return nil
	}
	out := make([][]uint64, m.slots+1)
	for c := range out {
		out[c] = make([]uint64, m.slots)
		for v := 0; v < m.slots; v++ {
			out[c][v] = atomic.LoadUint64(&m.cells[v*m.stride+c])
		}
	}
	return out
}

// reservoirCap is the default per-slot hot-var reservoir capacity.
const reservoirCap = 128

// Reservoir is a fixed-capacity uniform sample (Algorithm R) of conflicting
// Var identities, one per slot. The owning thread is the only writer; the
// sampled ids are stored atomically so report snapshots can run concurrently.
type Reservoir struct {
	seen uint64 // offers so far (atomic)
	rng  uint64 // splitmix64 state, owner-only
	cap  uint64 // len(ids), immutable after construction
	ids  []uint64
}

func newReservoir(capacity int, seed uint64) *Reservoir {
	if capacity <= 0 {
		capacity = reservoirCap
	}
	return &Reservoir{rng: seed, cap: uint64(capacity), ids: make([]uint64, capacity)}
}

// splitmix is the SplitMix64 step, the reservoir's deterministic randomness
// source (math/rand would allocate and lock on this path).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Offer feeds one conflicting Var id into the sample. Only the owning slot's
// thread may call it.
//
//stm:hotpath
func (r *Reservoir) Offer(id uint64) {
	n := atomic.LoadUint64(&r.seen)
	if n < r.cap {
		atomic.StoreUint64(&r.ids[n], id)
	} else {
		r.rng = splitmix(r.rng)
		if j := r.rng % (n + 1); j < r.cap {
			atomic.StoreUint64(&r.ids[j], id)
		}
	}
	atomic.AddUint64(&r.seen, 1)
}

// sample appends the currently retained ids to buf.
func (r *Reservoir) sample(buf []uint64) []uint64 {
	n := atomic.LoadUint64(&r.seen)
	if n > r.cap {
		n = r.cap
	}
	for i := uint64(0); i < n; i++ {
		buf = append(buf, atomic.LoadUint64(&r.ids[i]))
	}
	return buf
}

// attrSlot is one victim slot's attribution state. The trailing pad keeps
// adjacent slots' hot words off each other's cache lines in the []attrSlot.
type attrSlot struct {
	wastedNs  [NumAbortReasons]uint64 // ns burned in aborted attempts (atomic)
	wastedOps [NumAbortReasons]uint64 // reads+writes burned in aborted attempts (atomic)
	fpSampled uint64                  // invalidation dooms exactness-checked (atomic)
	fpFalse   uint64                  // ... of which the exact sets were disjoint (atomic)
	res       *Reservoir
	_         [padded.CacheLineSize]byte
}

// Attribution aggregates conflict attribution for one System: the
// who-aborted-whom matrix, per-slot hot-var reservoirs, wasted-work totals,
// and bloom false-positive accounting. All recording methods are nil-safe.
type Attribution struct {
	matrix *ConflictMatrix
	slots  []attrSlot
}

// NewAttribution returns attribution state for `slots` victim slots with the
// given per-slot reservoir capacity (<=0 selects the default 128). The seed
// derives each reservoir's deterministic sampling stream.
func NewAttribution(slots, reservoir int, seed uint64) *Attribution {
	a := &Attribution{
		matrix: NewConflictMatrix(slots),
		slots:  make([]attrSlot, slots),
	}
	for i := range a.slots {
		a.slots[i].res = newReservoir(reservoir, splitmix(seed+uint64(i)))
	}
	return a
}

// Unknown returns the committer index for aborts with no identifiable
// committer. Safe on nil (returns 0, but nil recorders drop the value).
func (a *Attribution) Unknown() int {
	if a == nil {
		return 0
	}
	return a.matrix.Unknown()
}

// RecordAbort charges one conflict abort of victim to committer
// (a.Unknown() when unidentified) and accounts the attempt's wasted work.
// Only invalidation aborts enter the matrix — validation/locked aborts
// have no committer, so they are accounted per reason only; this keeps the
// matrix sum equal to the taxonomy's AbortInvalidated counter.
//
//stm:hotpath
func (a *Attribution) RecordAbort(committer, victim int, reason AbortReason, ns, ops uint64) {
	if a == nil {
		return
	}
	if reason == AbortInvalidated {
		a.matrix.Record(committer, victim)
	}
	s := &a.slots[victim]
	atomic.AddUint64(&s.wastedNs[reason], ns)
	atomic.AddUint64(&s.wastedOps[reason], ops)
}

// OfferVar samples one conflicting Var id into victim's reservoir.
//
//stm:hotpath
func (a *Attribution) OfferVar(victim int, id uint64) {
	if a == nil {
		return
	}
	a.slots[victim].res.Offer(id)
}

// RecordFPCheck accounts one sampled exact read-set/write-set check:
// falsePositive means the bloom intersection that doomed the victim had no
// counterpart in the exact sets.
//
//stm:hotpath
func (a *Attribution) RecordFPCheck(victim int, falsePositive bool) {
	if a == nil {
		return
	}
	s := &a.slots[victim]
	atomic.AddUint64(&s.fpSampled, 1)
	if falsePositive {
		atomic.AddUint64(&s.fpFalse, 1)
	}
}

// HotVar is one entry of the top-K contended-variable table.
type HotVar struct {
	ID      uint64  `json:"id"`
	Name    string  `json:"name,omitempty"` // from NewVarNamed, when labeled
	Samples uint64  `json:"samples"`
	Share   float64 `json:"share"` // fraction of all retained samples
}

// FPStats is the bloom false-positive estimate from the sampled exact checks.
type FPStats struct {
	Sampled       uint64  `json:"sampled"`        // dooms exactness-checked
	FalsePositive uint64  `json:"false_positive"` // ... with disjoint exact sets
	Rate          float64 `json:"rate"`           // FalsePositive / Sampled
}

// ConflictReport is the JSON-serializable attribution snapshot served by
// System.ConflictReport and consumed by cmd/stmtop.
type ConflictReport struct {
	Enabled bool `json:"enabled"`
	Slots   int  `json:"slots"`
	// Matrix is [committer][victim] invalidation-abort counts; the final row
	// (index Slots) is the unknown committer (killer descriptor lost to a
	// racing doomer). Other abort reasons never enter the matrix.
	Matrix [][]uint64 `json:"matrix,omitempty"`
	// InvalidationAborts is the full matrix sum (unknown row included); it
	// equals Stats.AbortReasons[AbortInvalidated] at quiescence.
	InvalidationAborts uint64 `json:"invalidation_aborts"`
	// Commits/Aborts/AbortReasons mirror the Stats the report was built from,
	// so a dashboard needs a single snapshot.
	Commits      uint64            `json:"commits"`
	Aborts       uint64            `json:"aborts"`
	AbortReasons map[string]uint64 `json:"abort_reasons,omitempty"`
	// ReadOnly counts committed transactions that wrote nothing; ROCommits
	// the subset that finished on the multi-version snapshot path (zero
	// aborts, zero invalidation-scan work), ROFallbacks the snapshot attempts
	// that fell off the bounded version ring and re-ran on the regular path.
	// Carried whether or not attribution is enabled, like Commits/Aborts.
	ReadOnly    uint64 `json:"read_only"`
	ROCommits   uint64 `json:"ro_commits"`
	ROFallbacks uint64 `json:"ro_fallbacks"`
	// WastedNs/WastedOps are time and operations burned in aborted attempts,
	// per abort reason.
	WastedNs  map[string]uint64 `json:"wasted_ns,omitempty"`
	WastedOps map[string]uint64 `json:"wasted_ops,omitempty"`
	// FP is the bloom false-positive estimate; FilterBits the geometry it
	// was measured against.
	FP         FPStats `json:"fp"`
	FilterBits int     `json:"filter_bits"`
	// HotVars is the top-K contended-variable table aggregated from the
	// per-slot reservoirs; HotVarSamples the retained sample count behind it.
	HotVars       []HotVar `json:"hot_vars,omitempty"`
	HotVarSamples uint64   `json:"hot_var_samples"`
}

// ReportMeta carries the System-level context Attribution cannot see.
type ReportMeta struct {
	Commits      uint64
	Aborts       uint64
	ReadOnly     uint64
	ROCommits    uint64
	ROFallbacks  uint64
	AbortReasons [NumAbortReasons]uint64
	FilterBits   int
	TopK         int                 // hot-var table size (<=0 selects 16)
	NameOf       func(uint64) string // optional Var label resolver
}

// Report builds a ConflictReport snapshot. Safe to call while transactions
// run (each counter is read atomically; the snapshot is not a single
// instant). On a nil receiver it returns a report with Enabled=false.
func (a *Attribution) Report(meta ReportMeta) ConflictReport {
	rep := ConflictReport{
		Commits:      meta.Commits,
		Aborts:       meta.Aborts,
		ReadOnly:     meta.ReadOnly,
		ROCommits:    meta.ROCommits,
		ROFallbacks:  meta.ROFallbacks,
		FilterBits:   meta.FilterBits,
		AbortReasons: make(map[string]uint64, NumAbortReasons),
	}
	for _, r := range AbortReasons {
		rep.AbortReasons[r.String()] = meta.AbortReasons[r]
	}
	if a == nil {
		return rep
	}
	rep.Enabled = true
	rep.Slots = a.matrix.Slots()
	rep.Matrix = a.matrix.Snapshot()
	for _, row := range rep.Matrix {
		for _, n := range row {
			rep.InvalidationAborts += n
		}
	}
	rep.WastedNs = make(map[string]uint64, NumAbortReasons)
	rep.WastedOps = make(map[string]uint64, NumAbortReasons)
	var sample []uint64
	for i := range a.slots {
		s := &a.slots[i]
		for _, r := range AbortReasons {
			rep.WastedNs[r.String()] += atomic.LoadUint64(&s.wastedNs[r])
			rep.WastedOps[r.String()] += atomic.LoadUint64(&s.wastedOps[r])
		}
		rep.FP.Sampled += atomic.LoadUint64(&s.fpSampled)
		rep.FP.FalsePositive += atomic.LoadUint64(&s.fpFalse)
		sample = s.res.sample(sample)
	}
	if rep.FP.Sampled > 0 {
		rep.FP.Rate = float64(rep.FP.FalsePositive) / float64(rep.FP.Sampled)
	}
	rep.HotVarSamples = uint64(len(sample))
	rep.HotVars = topK(sample, meta.TopK, meta.NameOf)
	return rep
}

// Totals sums the scalar attribution counters across slots without building
// a report: sampled bloom FP checks, observed false positives, and wasted
// nanoseconds over every abort reason. Alloc-free (the time-series sampler
// calls it every window); nil-safe zeros when attribution is off.
func (a *Attribution) Totals() (fpSampled, fpFalse, wastedNs uint64) {
	if a == nil {
		return 0, 0, 0
	}
	for i := range a.slots {
		s := &a.slots[i]
		fpSampled += atomic.LoadUint64(&s.fpSampled)
		fpFalse += atomic.LoadUint64(&s.fpFalse)
		for _, r := range AbortReasons {
			wastedNs += atomic.LoadUint64(&s.wastedNs[r])
		}
	}
	return fpSampled, fpFalse, wastedNs
}

// topK aggregates raw reservoir samples into the k most-sampled Vars.
func topK(sample []uint64, k int, nameOf func(uint64) string) []HotVar {
	if len(sample) == 0 {
		return nil
	}
	if k <= 0 {
		k = 16
	}
	counts := make(map[uint64]uint64, len(sample))
	for _, id := range sample {
		counts[id]++
	}
	out := make([]HotVar, 0, len(counts))
	for id, n := range counts {
		hv := HotVar{ID: id, Samples: n, Share: float64(n) / float64(len(sample))}
		if nameOf != nil {
			hv.Name = nameOf(id)
		}
		out = append(out, hv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TopKShare returns the fraction of retained samples held by the first k
// hot vars — the skew measure the conflict benchmark reports.
func (r *ConflictReport) TopKShare(k int) float64 {
	if r.HotVarSamples == 0 {
		return 0
	}
	var n uint64
	for i, hv := range r.HotVars {
		if i >= k {
			break
		}
		n += hv.Samples
	}
	return float64(n) / float64(r.HotVarSamples)
}

// WriteOpenMetrics renders the report as OpenMetrics/Prometheus text (no
// trailing "# EOF"; the /metrics handler appends it once for the whole
// exposition). Zero matrix cells are elided to keep the page proportional to
// observed conflicts, not MaxThreads².
func (r *ConflictReport) WriteOpenMetrics(w io.Writer) {
	family(w, "stm_commits", "counter", "Committed transactions.")
	fmt.Fprintf(w, "stm_commits_total %d\n", r.Commits)
	family(w, "stm_aborts", "counter", "Transaction aborts by reason (conflict reasons plus explicit user aborts).")
	for _, reason := range AbortReasons {
		fmt.Fprintf(w, "stm_aborts_total{reason=%q} %d\n", reason.String(), r.AbortReasons[reason.String()])
	}
	family(w, "stm_readonly", "counter", "Committed transactions that wrote nothing.")
	fmt.Fprintf(w, "stm_readonly_total %d\n", r.ReadOnly)
	family(w, "stm_ro_commits", "counter", "Read-only transactions committed on the multi-version snapshot path.")
	fmt.Fprintf(w, "stm_ro_commits_total %d\n", r.ROCommits)
	family(w, "stm_ro_fallbacks", "counter", "Snapshot read-only attempts that fell back to the regular path.")
	fmt.Fprintf(w, "stm_ro_fallbacks_total %d\n", r.ROFallbacks)
	family(w, "stm_attribution_enabled", "gauge", "Whether conflict attribution is collecting.")
	fmt.Fprintf(w, "stm_attribution_enabled %d\n", b2i(r.Enabled))
	if !r.Enabled {
		return
	}
	family(w, "stm_wasted_ns", "counter", "Wall-clock nanoseconds wasted in aborted attempts, by abort reason.")
	for _, reason := range AbortReasons {
		fmt.Fprintf(w, "stm_wasted_ns_total{reason=%q} %d\n", reason.String(), r.WastedNs[reason.String()])
	}
	family(w, "stm_wasted_ops", "counter", "Transactional operations wasted in aborted attempts, by abort reason.")
	for _, reason := range AbortReasons {
		fmt.Fprintf(w, "stm_wasted_ops_total{reason=%q} %d\n", reason.String(), r.WastedOps[reason.String()])
	}
	family(w, "stm_bloom_fp_checks", "counter", "Sampled exact-intersection bloom false-positive checks.")
	fmt.Fprintf(w, "stm_bloom_fp_checks_total %d\n", r.FP.Sampled)
	family(w, "stm_bloom_fp", "counter", "Sampled dooms whose exact read/write intersection was empty (bloom false positives).")
	fmt.Fprintf(w, "stm_bloom_fp_total{filter_bits=\"%d\"} %d\n", r.FilterBits, r.FP.FalsePositive)
	family(w, "stm_conflicts", "counter", "Who-aborted-whom matrix: invalidations by committer and victim slot.")
	for c, row := range r.Matrix {
		committer := fmt.Sprintf("%d", c)
		if c == r.Slots {
			committer = "unknown"
		}
		for v, n := range row {
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "stm_conflicts_total{committer=%q,victim=\"%d\"} %d\n", committer, v, n)
		}
	}
	family(w, "stm_hot_var_samples", "gauge", "Hot-var reservoir samples per conflicting Var (top-K).")
	for _, hv := range r.HotVars {
		label := hv.Name
		if label == "" {
			label = fmt.Sprintf("var-%d", hv.ID)
		}
		fmt.Fprintf(w, "stm_hot_var_samples{var=%q} %d\n", label, hv.Samples)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
