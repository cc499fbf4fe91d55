package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

// TestRunMVReadOnly smoke-runs a tiny sweep and enforces the report's
// structural invariants: a reader that never fell back takes zero aborts and
// zero read-victim matrix cells at every Versions>0 point (the abort-free
// construction), the Versions=0 baseline takes no snapshot path at all, and
// the JSON round-trips.
func TestRunMVReadOnly(t *testing.T) {
	rep, err := RunMVReadOnly([]stm.Algo{stm.InvalSTM},
		MVReadOnlyOpts{
			ReadPcts: []int{50, 90},
			Clients:  []int{4},
			Versions: []int{0, 4},
			Duration: 15 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2*2 {
		t.Fatalf("points = %d, want 4", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Readers+p.Writers != p.Clients || p.Readers < 1 || p.Writers < 1 {
			t.Errorf("%+v: bad reader/writer split", p)
		}
		if p.ROCommits == 0 {
			t.Errorf("%s %d%%/V=%d: readers committed nothing", p.Algo, p.ReadPct, p.Versions)
		}
		if p.Versions > 0 {
			// Per reader: no fallback, no abort. Versions is tiny here, so a
			// descheduled reader may be lapped, and its fallback runs in the
			// regular retry loop where it can be doomed (more than once).
			if p.ROAbortsNoFallback != 0 {
				t.Errorf("%s %d%%/V=%d: %d aborts on readers that never fell back, want 0", p.Algo, p.ReadPct, p.Versions, p.ROAbortsNoFallback)
			}
			if p.ReadVictimNoFallback != 0 {
				t.Errorf("%s %d%%/V=%d: %d read-victim conflicts on readers that never fell back, want 0", p.Algo, p.ReadPct, p.Versions, p.ReadVictimNoFallback)
			}
			if p.ROSnapshot == 0 {
				t.Errorf("%s %d%%/V=%d: snapshot path never taken", p.Algo, p.ReadPct, p.Versions)
			}
		} else if p.ROSnapshot != 0 {
			t.Errorf("%s %d%%/V=0: %d snapshot commits at Versions=0", p.Algo, p.ReadPct, p.ROSnapshot)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back MVReadOnlyReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(rep.Points) {
		t.Fatalf("round trip lost points: %d != %d", len(back.Points), len(rep.Points))
	}
	rep.Format(&buf) // must not panic
}
