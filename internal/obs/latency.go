// Critical-path latency decomposition. Config.Latency samples 1-in-N
// transactions (N = Config.LatencySampleEvery) and splits each sampled
// commit's wall-clock time into the phases the paper's critical-path
// argument is about: app work, retry/wasted time, commit-enqueue wait on the
// client side; batch-collect, invalidation scan, inval-wait, write-back,
// reply (plus cross-shard lock-wait and drain when Shards > 1) on the server
// side. Phases are recorded into cache-padded per-actor histo.Atomic cells —
// one writer per cell, concurrent snapshots — so a live LatencyReport and
// the flight recorder can read while transactions run, race-free.
//
// The same nil-receiver discipline as the rest of the package applies: when
// Config.Latency is off core holds a nil *LatencyRecorder, every cell
// pointer is nil, and each record site costs one predictable nil/bool check
// — no clock read (BenchmarkLatencyOverhead pins this at ≤ 2 ns, 0 allocs).
package obs

import (
	"fmt"
	"io"
	"sort"

	"github.com/ssrg-vt/rinval/internal/histo"
	"github.com/ssrg-vt/rinval/internal/padded"
)

// LatPhase identifies one critical-path phase.
type LatPhase uint8

const (
	// Client-side phases: recorded once per sampled committed transaction,
	// so each client phase histogram's count equals the sampled-commit count
	// and App+Retry+CommitWait <= Total by construction.

	// LatApp: the user function body of the attempt that committed.
	LatApp LatPhase = iota
	// LatRetry: wasted time — every failed attempt of the sampled
	// transaction, user-function time and rollback included.
	LatRetry
	// LatCommitWait: the engine commit call of the committing attempt; for
	// remote engines this is publish-request -> reply spin, i.e. the full
	// commit-server round trip seen by the client.
	LatCommitWait
	// LatTotal: the whole Atomically call, begin of first attempt to commit.
	LatTotal

	// Server-side phases: recorded once per epoch (commit-server) or per
	// descriptor (invalidation-server) whenever Latency is on — epochs are
	// orders of magnitude rarer than transactions, so they are not sampled.

	// LatCollect: the batch-collection scan over pending commit requests.
	LatCollect
	// LatScan: invalidation scan work — the commit-server's inline
	// invalidation pass (V1) or one partition scan of one commit descriptor
	// (V2/V3), on the cell of whoever ran it: the invalidation-server's, or
	// the commit-server's when the epoch driver did.
	LatScan
	// LatInvalWait: commit-server waiting for invalidation-servers to come
	// within the lag budget.
	LatInvalWait
	// LatWriteBack: publishing the batch's write sets.
	LatWriteBack
	// LatReply: replying COMMITTED to the batch members.
	LatReply
	// LatLockWait: cross-shard handshake — acquiring the touched streams'
	// locks in ascending order (Shards > 1 only).
	LatLockWait
	// LatDrain: cross-shard handshake — draining the touched streams'
	// invalidation backlogs before the combined epoch (Shards > 1 only).
	LatDrain

	// NumLatPhases bounds the phase enum, for cell arrays.
	NumLatPhases
)

// String returns the stable phase name used in reports and metric labels.
func (p LatPhase) String() string {
	switch p {
	case LatApp:
		return "app"
	case LatRetry:
		return "retry"
	case LatCommitWait:
		return "commit-wait"
	case LatTotal:
		return "total"
	case LatCollect:
		return "collect"
	case LatScan:
		return "scan"
	case LatInvalWait:
		return "inval-wait"
	case LatWriteBack:
		return "write-back"
	case LatReply:
		return "reply"
	case LatLockWait:
		return "lock-wait"
	case LatDrain:
		return "drain"
	default:
		return fmt.Sprintf("LatPhase(%d)", int(p))
	}
}

// clientPhases and serverPhases list each side's phases in report order.
var (
	clientPhases = []LatPhase{LatApp, LatRetry, LatCommitWait, LatTotal}
	serverPhases = []LatPhase{LatCollect, LatScan, LatInvalWait, LatWriteBack, LatReply, LatLockWait, LatDrain}
)

// LatCell is one actor's phase histograms. One goroutine at a time records
// into a cell — the client thread or invalidation-server it belongs to, or,
// for a commit-server cell, whoever holds that stream's lock; any goroutine
// may snapshot. The leading/trailing pads keep neighbouring cells'
// hot words off shared cache lines. All methods are nil-receiver-safe no-ops
// so disabled latency costs a nil check at each record site.
type LatCell struct {
	_      [padded.CacheLineSize]byte
	seq    uint64 // owner-only sampling counter (clients)
	every  uint64
	phases [NumLatPhases]histo.Atomic
	_      [padded.CacheLineSize]byte
}

// Sample advances the owner's 1-in-N counter and reports whether the next
// transaction is sampled. Owner-only; plain arithmetic, no clock read.
//
//stm:hotpath
func (c *LatCell) Sample() bool {
	if c == nil {
		return false
	}
	c.seq++
	return c.seq%c.every == 0
}

// Record adds one phase duration (ns; negative clamps to 0).
//
//stm:hotpath
func (c *LatCell) Record(p LatPhase, ns int64) {
	if c == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	c.phases[p].Record(uint64(ns))
}

// CommitSample records all four client phases of one sampled committed
// transaction in a single call — one call site under the commit path's
// sampled branch keeps the unsampled path's codegen lean.
//
//stm:hotpath
func (c *LatCell) CommitSample(app, commitWait, retry, total int64) {
	c.Record(LatApp, app)
	c.Record(LatCommitWait, commitWait)
	c.Record(LatRetry, retry)
	c.Record(LatTotal, total)
}

// LatencyRecorder owns the latency cells for one System: one per client
// slot and one per server goroutine (commit-servers first, then
// invalidation-servers). Constructed up front; the hot path only ever
// touches individual cells.
type LatencyRecorder struct {
	sampleEvery uint64
	clients     []LatCell
	servers     []LatCell
}

// NewLatencyRecorder sizes a recorder for clients client slots and servers
// server goroutines, sampling 1 in sampleEvery transactions (min 1).
func NewLatencyRecorder(clients, servers, sampleEvery int) *LatencyRecorder {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	l := &LatencyRecorder{
		sampleEvery: uint64(sampleEvery),
		clients:     make([]LatCell, clients),
		servers:     make([]LatCell, servers),
	}
	for i := range l.clients {
		l.clients[i].every = l.sampleEvery
	}
	for i := range l.servers {
		l.servers[i].every = 1 // servers record every epoch
	}
	return l
}

// Client returns client slot i's cell, or nil on a nil recorder.
func (l *LatencyRecorder) Client(i int) *LatCell {
	if l == nil {
		return nil
	}
	return &l.clients[i]
}

// Server returns server goroutine i's cell, or nil on a nil recorder.
func (l *LatencyRecorder) Server(i int) *LatCell {
	if l == nil {
		return nil
	}
	return &l.servers[i]
}

// SampleEvery returns the sampling period (0 on a nil recorder).
func (l *LatencyRecorder) SampleEvery() int {
	if l == nil {
		return 0
	}
	return int(l.sampleEvery)
}

// LatencyPhase is one phase's merged distribution in a LatencyReport.
type LatencyPhase struct {
	Phase  string         `json:"phase"`
	Count  uint64         `json:"count"`
	SumNs  uint64         `json:"sum_ns"`
	MeanNs float64        `json:"mean_ns"`
	P50    uint64         `json:"p50_ns"`
	P90    uint64         `json:"p90_ns"`
	P99    uint64         `json:"p99_ns"`
	P999   uint64         `json:"p999_ns"`
	MaxNs  uint64         `json:"max_ns"`
	Bucket []histo.Bucket `json:"buckets,omitempty"`
}

// LatencyReport is the merged, point-in-time critical-path decomposition —
// safe to build while transactions run.
type LatencyReport struct {
	Enabled        bool           `json:"enabled"`
	SampleEvery    int            `json:"sample_every"`
	SampledCommits uint64         `json:"sampled_commits"` // count of the client "total" phase
	Client         []LatencyPhase `json:"client"`
	Server         []LatencyPhase `json:"server"`
}

// phaseStats turns a merged histogram into its report row.
func phaseStats(p LatPhase, h *histo.Histogram) LatencyPhase {
	return LatencyPhase{
		Phase:  p.String(),
		Count:  h.Count(),
		SumNs:  h.Sum(),
		MeanNs: h.Mean(),
		P50:    h.Quantile(0.5),
		P90:    h.Quantile(0.9),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
		MaxNs:  h.Max(),
		Bucket: h.NonEmptyBuckets(),
	}
}

// mergePhase folds phase p across cells into one histogram.
func mergePhase(cells []LatCell, p LatPhase) histo.Histogram {
	var out histo.Histogram
	for i := range cells {
		s := cells[i].phases[p].Snapshot()
		out.Merge(&s)
	}
	return out
}

// Report merges every cell into per-phase distributions. Nil-safe: a nil
// recorder reports Enabled=false with no phases.
func (l *LatencyRecorder) Report() LatencyReport {
	if l == nil {
		return LatencyReport{}
	}
	rep := LatencyReport{Enabled: true, SampleEvery: int(l.sampleEvery)}
	for _, p := range clientPhases {
		h := mergePhase(l.clients, p)
		if p == LatTotal {
			rep.SampledCommits = h.Count()
		}
		rep.Client = append(rep.Client, phaseStats(p, &h))
	}
	for _, p := range serverPhases {
		h := mergePhase(l.servers, p)
		if h.Count() == 0 {
			// Elide phases the running configuration never records: the
			// cross-shard handshake phases on single-shard systems, the lag
			// wait on V1 (whose inline scan is "scan"), the scan on engines
			// without invalidation-servers, everything on non-RInval engines.
			continue
		}
		rep.Server = append(rep.Server, phaseStats(p, &h))
	}
	return rep
}

// ClientPhaseHistogram merges one client phase across all cells — the churn
// test's reconciliation hook.
func (l *LatencyRecorder) ClientPhaseHistogram(p LatPhase) histo.Histogram {
	if l == nil {
		return histo.Histogram{}
	}
	return mergePhase(l.clients, p)
}

// NamedHistogram pairs a histogram with the metric name and label set it is
// exported under — the unit /metrics uses for the histogram-typed series
// beyond the latency report (the commit streams' per-epoch histograms).
type NamedHistogram struct {
	Name   string // metric family, e.g. "stm_latency_ns"
	Labels string // rendered label pairs without braces, e.g. `phase="app",side="client"`
	Hist   histo.Histogram
}

// WriteOpenMetricsHistogram renders one OpenMetrics histogram child from a
// histogram's non-empty buckets, count and sum — the form both a live
// histo.Histogram and a LatencyReport row (which may have come back from
// JSON) can supply: cumulative le buckets (the power-of-two bucket upper
// bounds, then +Inf), plus the _count and _sum series. The caller writes the
// # TYPE line once per family.
func WriteOpenMetricsHistogram(w io.Writer, name, labels string, buckets []histo.Bucket, count, sum uint64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for _, b := range buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", name, labels, sep, b.Hi, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, count)
	if labels == "" {
		fmt.Fprintf(w, "%s_count %d\n", name, count)
		fmt.Fprintf(w, "%s_sum %d\n", name, sum)
		return
	}
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, count)
	fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, sum)
}

// WriteOpenMetrics renders the report's phase histograms as the
// stm_latency_ns family with phase/side labels.
func (r *LatencyReport) WriteOpenMetrics(w io.Writer) {
	family(w, "stm_latency_enabled", "gauge", "Whether the critical-path latency decomposition is collecting.")
	fmt.Fprintf(w, "stm_latency_enabled %d\n", b2i(r.Enabled))
	if !r.Enabled {
		return
	}
	family(w, "stm_latency_sampled_commits", "counter", "Committed transactions sampled by the latency decomposition.")
	fmt.Fprintf(w, "stm_latency_sampled_commits_total %d\n", r.SampledCommits)
	family(w, "stm_latency_ns", "histogram", "Critical-path phase durations by phase and side, in nanoseconds.")
	for _, p := range r.Client {
		WriteOpenMetricsHistogram(w, "stm_latency_ns", fmt.Sprintf("phase=%q,side=\"client\"", p.Phase), p.Bucket, p.Count, p.SumNs)
	}
	for _, p := range r.Server {
		WriteOpenMetricsHistogram(w, "stm_latency_ns", fmt.Sprintf("phase=%q,side=\"server\"", p.Phase), p.Bucket, p.Count, p.SumNs)
	}
}

// SortPhases orders report rows by descending p99 — what the stmtop panel
// and the SLO bench use to put the dominant phase first.
func SortPhases(phases []LatencyPhase) {
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].P99 > phases[j].P99 })
}
