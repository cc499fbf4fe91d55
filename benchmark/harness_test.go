package main

import (
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/stamp"
	"github.com/ssrg-vt/rinval/stm"
)

// stubInst is a workload whose transactions do no STM work, so whatever a
// cell allocates while it is timed is the harness's own.
type stubInst struct{}

func (stubInst) client(int, *stm.Thread, *stamp.Rand, *recorder) func() error {
	return func() error { return nil }
}

func (stubInst) check() error { return nil }

// allocs_per_tx must measure the library: the timed slices — clock reads,
// latency samples, slice bookkeeping, starting and collecting the client
// goroutines — may allocate nothing.
func TestTimedLoopsAllocateNothing(t *testing.T) {
	w := workload{name: "stub", clients: 2, opsPerTx: 1, build: func(*stm.System, plan, uint64) (instance, error) {
		return stubInst{}, nil
	}}
	p := plan{rounds: 1, slices: 5, slice: 10 * time.Millisecond, warmup: 1000}
	acc := newSeries(w, p)
	out := runCell(w, stm.NOrec, 0, 1, p, false, acc)
	if out.err != nil || out.failed != 0 {
		t.Fatalf("stub cell failed: %v (%d failed)", out.err, out.failed)
	}
	if len(acc.rates) != p.slices || acc.tx == 0 {
		t.Fatalf("stub cell measured %d slices, %d tx", len(acc.rates), acc.tx)
	}
	for c, l := range acc.lat {
		if len(l.ns) == 0 {
			t.Errorf("client %d: no latency samples", c)
		}
	}
	// 0 allocs/op as testing.AllocsPerRun counts it: the process-wide count
	// may hold a stray runtime allocation, but not one per thousand steps.
	if acc.mallocs*1000 >= acc.tx {
		t.Errorf("timed slices allocated %d objects over %d steps; want 0 allocs/op", acc.mallocs, acc.tx)
	}
}

// A full latency buffer stops sampling; it never grows inside a timed slice.
func TestLatBufStopsWhenFull(t *testing.T) {
	l := &latBuf{ns: make([]uint32, 0, 2)}
	for _, d := range []int64{10, 1 << 40, 30} {
		l.add(d)
	}
	if len(l.ns) != 2 || cap(l.ns) != 2 || l.ns[0] != 10 || l.ns[1] != 1<<32-1 {
		t.Errorf("latBuf = %v (cap %d), want [10 4294967295] (cap 2)", l.ns, cap(l.ns))
	}
}

// An attempt the engine aborts unwinds past its open op span; closing the
// attempt must close the op too, so that no self time goes negative.
func TestRecorderClosesUnwoundSpans(t *testing.T) {
	r := newRecorder(8)
	tx := r.begin(spanTx)
	a := r.begin(spanAttempt)
	r.begin(opLoad) // never ended: the attempt was aborted inside it
	r.end(a)
	a2 := r.begin(spanAttempt)
	o := r.begin(opStore)
	r.end(o)
	r.end(a2)
	r.end(tx)
	if r.open != -1 {
		t.Fatalf("open = %d after the tx ended, want -1", r.open)
	}
	for i, sp := range r.spans {
		if sp.end < sp.start {
			t.Errorf("span %d (%s) was never closed", i, spanKindNames[sp.kind])
		}
	}
	if got := []int32{r.spans[1].parent, r.spans[2].parent, r.spans[3].parent, r.spans[4].parent}; got[0] != 0 || got[1] != 1 || got[2] != 0 || got[3] != 3 {
		t.Errorf("parents = %v, want [0 1 0 3]", got)
	}
	var s spanSums
	s.add(r)
	if s.count[spanTx] != 1 || s.count[spanAttempt] != 2 || s.opCount() != 2 {
		t.Errorf("counts tx=%d attempt=%d op=%d, want 1 2 2", s.count[spanTx], s.count[spanAttempt], s.opCount())
	}
	if s.ns[spanTx] < s.ns[spanAttempt] || s.ns[spanAttempt] < s.opNs() {
		t.Errorf("a level's spans outlast their parents: tx %d, attempt %d, op %d ns", s.ns[spanTx], s.ns[spanAttempt], s.opNs())
	}

	full := newRecorder(1)
	full.end(full.begin(spanTx))
	if id := full.begin(spanTx); id != -1 || full.dropped != 1 || len(full.spans) != 1 {
		t.Errorf("a full recorder returned id %d, dropped %d, holds %d spans", id, full.dropped, len(full.spans))
	}
	var none *recorder
	none.end(none.begin(spanTx)) // a nil recorder records nothing and does not panic
}
