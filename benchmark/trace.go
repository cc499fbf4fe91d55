package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span kinds. The first two are the structural levels; the rest name the
// operation an op span wraps, so one traced run also yields per-container
// operation costs.
const (
	spanTx = iota
	spanAttempt
	opLoad
	opStore
	opScan
	opContains
	opInsert
	opDelete
	opGet
	opPut
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"tx", "attempt", "load", "store", "scan", "contains", "insert", "delete", "get", "put",
}

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// span is one recorded interval; its id is its index in the recorder.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 for a tx
	kind       uint8
}

// recorder collects one client's spans of a traced run into memory sized
// before the run. A nil recorder records nothing, so workload bodies call it
// unconditionally and the untraced run pays a nil check per boundary.
type recorder struct {
	spans   []span
	open    int32 // innermost open span, -1 when none
	dropped int   // begins refused because the buffer was full
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity), open: -1}
}

// begin opens a span of the given kind under the innermost open span.
func (r *recorder) begin(kind uint8) int32 {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{start: now(), parent: r.open, kind: kind})
	r.open = id
	return id
}

// end closes span id. An attempt the engine aborts unwinds past its open op,
// so any span still open inside id is closed at the same instant.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	t := now()
	for r.open != id {
		r.spans[r.open].end = t
		r.open = r.spans[r.open].parent
	}
	r.spans[id].end = t
	r.open = r.spans[id].parent
}

// spanSums aggregates recorded spans: total duration and count per kind.
type spanSums struct {
	ns      [numSpanKinds]int64
	count   [numSpanKinds]int64
	dropped int
}

func (s *spanSums) add(r *recorder) {
	for i := range r.spans {
		sp := &r.spans[i]
		s.ns[sp.kind] += sp.end - sp.start
		s.count[sp.kind]++
	}
	s.dropped += r.dropped
}

// opNs is the time inside op spans of every kind.
func (s *spanSums) opNs() int64 {
	var n int64
	for k := opLoad; k < numSpanKinds; k++ {
		n += s.ns[k]
	}
	return n
}

// opCount is the number of op spans of every kind.
func (s *spanSums) opCount() int64 {
	var n int64
	for k := opLoad; k < numSpanKinds; k++ {
		n += s.count[k]
	}
	return n
}

// perTx divides a total by the number of tx spans.
func (s *spanSums) perTx(total int64) float64 {
	return ratio(float64(total), float64(s.count[spanTx]))
}

// opMean is the mean duration of op spans of one kind.
func (s *spanSums) opMean(kind int) float64 {
	return ratio(float64(s.ns[kind]), float64(s.count[kind]))
}

// traceExcerptTx is how many transactions per client and engine the trace
// file keeps span by span; the per-engine sums cover every recorded span.
const traceExcerptTx = 1000

// traceEngine is one engine's share of a trace file. A span row is
// [tx id, span id, parent span id (-1 for a tx), kind, start ns, end ns],
// tx id = client<<32 | sequence number.
type traceEngine struct {
	Tx        int64            `json:"tx"`
	Attempts  int64            `json:"attempts"`
	Dropped   int              `json:"dropped"`
	NsByKind  map[string]int64 `json:"ns_by_kind"`
	NumByKind map[string]int64 `json:"count_by_kind"`
	Spans     [][6]int64       `json:"spans"`
}

func newTraceEngine(recs []*recorder, sums *spanSums) traceEngine {
	te := traceEngine{NsByKind: map[string]int64{}, NumByKind: map[string]int64{}}
	for c, r := range recs {
		txID := int64(c)<<32 - 1
		for i := range r.spans {
			sp := &r.spans[i]
			if sp.kind == spanTx {
				txID++
				if txID&(1<<32-1) >= traceExcerptTx {
					break
				}
			}
			te.Spans = append(te.Spans, [6]int64{txID, int64(i), int64(sp.parent), int64(sp.kind), sp.start, sp.end})
		}
	}
	te.Tx, te.Attempts, te.Dropped = sums.count[spanTx], sums.count[spanAttempt], sums.dropped
	for k, name := range spanKindNames {
		if sums.count[k] > 0 {
			te.NsByKind[name], te.NumByKind[name] = sums.ns[k], sums.count[k]
		}
	}
	return te
}

// traceFile is what a traced run leaves in <out>/trace-<workload>.json.
type traceFile struct {
	Host      hostInfo               `json:"host"`
	Workload  string                 `json:"workload"`
	SpanKinds []string               `json:"span_kinds"`
	ExcerptTx int                    `json:"excerpt_tx_per_client"`
	Engines   map[string]traceEngine `json:"engines"`
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	return path, os.WriteFile(path, data, 0o644)
}
