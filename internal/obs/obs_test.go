package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRingIsNoOp(t *testing.T) {
	var r *Ring
	if got := r.Now(); got != 0 {
		t.Fatalf("nil ring Now() = %d, want 0", got)
	}
	// None of these may panic or record anything.
	r.Instant(KBegin, 1)
	r.InstantAt(KAbort, 5, 2)
	r.Span(KTx, 0, 0)
	r.SpanAt(KEpoch, 1, 2, 3)
	r.Counter(KQueueDepth, 4)
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil ring reported contents")
	}
}

func TestRingRecordAndSnapshotOrder(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 5; i++ {
		r.InstantAt(KBegin, int64(i*10), uint64(i))
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	snap := r.Snapshot()
	for i, e := range snap {
		if e.TS != int64(i*10) || e.Arg != uint64(i) || e.Kind != KBegin {
			t.Fatalf("snapshot[%d] = %+v", i, e)
		}
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 20; i++ {
		r.InstantAt(KCommitReq, int64(i), uint64(i))
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", r.Dropped())
	}
	snap := r.Snapshot()
	for i, e := range snap {
		if want := uint64(12 + i); e.Arg != want {
			t.Fatalf("snapshot[%d].Arg = %d, want %d (oldest-first window)", i, e.Arg, want)
		}
	}
}

func TestRingCapacityRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 1}, {3, 4}, {4, 4}, {100, 128}} {
		r := newRing(tc.ask)
		if int(r.capacity()) != tc.want {
			t.Errorf("newRing(%d) capacity = %d, want %d", tc.ask, r.capacity(), tc.want)
		}
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := newRing(4)
	r.SpanAt(KEpoch, 100, 250, 3)
	e := r.Snapshot()[0]
	if e.TS != 100 || e.Dur != 150 || e.Arg != 3 {
		t.Fatalf("span event %+v", e)
	}
}

func TestAbortReasonStrings(t *testing.T) {
	want := map[AbortReason]string{
		AbortInvalidated: "invalidated",
		AbortValidation:  "validation",
		AbortLocked:      "locked",
		AbortExplicit:    "explicit",
	}
	if len(AbortReasons) != int(NumAbortReasons) {
		t.Fatalf("AbortReasons lists %d reasons, want %d", len(AbortReasons), NumAbortReasons)
	}
	for _, r := range AbortReasons {
		if r.String() != want[r] {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want[r])
		}
	}
	if s := AbortReason(99).String(); s != "AbortReason(99)" {
		t.Errorf("unknown reason string %q", s)
	}
}

func TestKindStringsAreUnique(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
}

// chromeFile is the subset of the trace-event JSON the tests inspect.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	client := tr.AddActor("client-0")
	server := tr.AddActor("commit-server")

	client.InstantAt(KBegin, 1000, 1)
	client.SpanAt(KTx, 1000, 4000, OutcomeAbort)
	client.InstantAt(KAbort, 4000, uint64(AbortValidation))
	server.SpanAt(KEpoch, 2000, 3000, 2)
	server.Counter(KQueueDepth, 7)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}

	tracks := map[string]bool{}
	var abortReason, outcome any
	sawCounter, sawSpan := false, false
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name != "thread_name" {
				t.Errorf("metadata event named %q", e.Name)
			}
			tracks[e.Args["name"].(string)] = true
		case "i":
			if e.Name == "abort" {
				abortReason = e.Args["reason"]
			}
		case "X":
			sawSpan = true
			if e.Dur == nil {
				t.Errorf("X event %q without dur", e.Name)
			}
			if e.Name == "tx" {
				outcome = e.Args["outcome"]
			}
		case "C":
			sawCounter = true
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if !tracks["client-0"] || !tracks["commit-server"] {
		t.Fatalf("missing thread_name tracks: %v", tracks)
	}
	if abortReason != "validation" {
		t.Fatalf("abort reason annotation = %v", abortReason)
	}
	if outcome != "abort" {
		t.Fatalf("tx outcome annotation = %v", outcome)
	}
	if !sawSpan || !sawCounter {
		t.Fatalf("span=%v counter=%v events missing", sawSpan, sawCounter)
	}
}

func TestChromeTraceEventsSortedByTime(t *testing.T) {
	tr := NewTracer(16)
	a := tr.AddActor("a")
	b := tr.AddActor("b")
	a.InstantAt(KBegin, 300, 0)
	b.InstantAt(KBegin, 100, 0)
	a.InstantAt(KBegin, 200, 0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for _, e := range f.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.TS < last {
			t.Fatalf("events out of order: %v after %v", e.TS, last)
		}
		last = e.TS
	}
}

func TestSummary(t *testing.T) {
	tr := NewTracer(16)
	r := tr.AddActor("client-0")
	r.InstantAt(KBegin, 0, 1)
	r.SpanAt(KTx, 0, 500, OutcomeCommit)
	var buf bytes.Buffer
	tr.Summary(&buf)
	out := buf.String()
	for _, want := range []string{"client-0", "begin", "tx"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	Publish("obs-test", func() any { return map[string]int{"x": 1} })
	Publish("obs-test", func() any { return nil }) // idempotent re-publish

	addr, shutdown, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if addr == "" {
		t.Fatal("empty bound address")
	}
}

// BenchmarkTraceOverhead compares a representative hot-path sequence (the
// events one committed transaction records) against the same sequence on a
// nil ring, which is what disabled tracing executes. The nil case must be
// within noise of free; the enabled case is bounded by a few clock reads.
func BenchmarkTraceOverhead(b *testing.B) {
	attempt := func(r *Ring) {
		t0 := r.Now()
		r.InstantAt(KBegin, t0, 1)
		tc := r.Now()
		r.Span(KCommit, tc, 0)
		r.Span(KTx, t0, OutcomeCommit)
	}
	b.Run("disabled", func(b *testing.B) {
		var r *Ring
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			attempt(r)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		r := newRing(DefaultRingEvents)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			attempt(r)
		}
	})
}
