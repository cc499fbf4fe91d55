package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/ssrg-vt/rinval/stm"
)

func TestParseThreads(t *testing.T) {
	got, err := ParseThreads("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("got %v err %v", got, err)
	}
	for _, bad := range []string{"", "0", "a", "1,-2"} {
		if _, err := ParseThreads(bad); err == nil {
			t.Errorf("ParseThreads(%q) accepted", bad)
		}
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tbl := &Table{
		Title: "test",
		Rows: []Row{
			{Algo: "norec", Threads: 2, KTxPerSec: 12.5, Commits: 100, Aborts: 3},
			{Algo: "rinval-v2", Threads: 4, KTxPerSec: 20, Commits: 200},
		},
	}
	var buf bytes.Buffer
	tbl.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "norec") || !strings.Contains(out, "rinval-v2") {
		t.Fatalf("format missing rows:\n%s", out)
	}
	buf.Reset()
	tbl.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "norec,2,") {
		t.Fatalf("csv wrong:\n%s", buf.String())
	}
}

func TestTableSortAndSeries(t *testing.T) {
	tbl := &Table{Rows: []Row{
		{Algo: "rinval-v1", Threads: 4, KTxPerSec: 3},
		{Algo: "norec", Threads: 8, KTxPerSec: 2},
		{Algo: "norec", Threads: 2, KTxPerSec: 1},
	}}
	tbl.Sort()
	if tbl.Rows[0].Algo != "norec" || tbl.Rows[0].Threads != 2 {
		t.Fatalf("sort wrong: %+v", tbl.Rows)
	}
	s := tbl.Series("norec")
	if len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Fatalf("series %v", s)
	}
}

func TestNewSTAMPRegistryComplete(t *testing.T) {
	for _, app := range STAMPApps {
		w, err := NewSTAMP(app, ScaleSmall, 1)
		if err != nil || w == nil || w.Name() != app {
			t.Fatalf("app %q: %v", app, err)
		}
	}
	if _, err := NewSTAMP("yada", ScaleSmall, 1); err == nil {
		t.Fatal("yada accepted (paper excludes it)")
	}
}

func TestRunSTAMPLiveSmoke(t *testing.T) {
	row, err := RunSTAMP(stm.RInvalV1, "ssca2", 2, ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Commits == 0 || row.Elapsed == 0 {
		t.Fatalf("row %+v", row)
	}
}

func TestSimFigureGenerators(t *testing.T) {
	threads := []int{2, 8}
	f7 := SimFigure7(50, threads, 1)
	if len(f7.Rows) != len(threads)*4 {
		t.Fatalf("fig7 rows %d", len(f7.Rows))
	}
	f2 := SimFigure2(threads, 1)
	for _, r := range f2.Rows {
		if r.ReadFrac+r.CommitFrac+r.AbortFrac+r.OtherFrac < 0.99 {
			t.Fatalf("fig2 row lacks breakdown: %+v", r)
		}
	}
	f3 := SimFigure3(32, 1)
	if len(f3.Rows) != 7*2 {
		t.Fatalf("fig3 rows %d", len(f3.Rows))
	}
	f8, err := SimFigure8("kmeans", threads, 1)
	if err != nil || len(f8.Rows) != len(threads)*4 {
		t.Fatalf("fig8: %v rows=%d", err, len(f8.Rows))
	}
	if _, err := SimFigure8("nope", threads, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
	abl := SimAblationInvalServers([]int{1, 4}, 32, 1)
	if len(abl.Rows) != 2 {
		t.Fatalf("ablation rows %d", len(abl.Rows))
	}
	jit := SimAblationJitter(32, 1)
	if len(jit.Rows) != 6 {
		t.Fatalf("jitter rows %d", len(jit.Rows))
	}
}

func TestSimAblationGenerators(t *testing.T) {
	steps := SimAblationStepsAhead([]int{1, 4}, 32, 1)
	if len(steps.Rows) != 3 { // v2 + two v3 windows
		t.Fatalf("steps rows %d", len(steps.Rows))
	}
	cvf := SimAblationCoarseVsFine([]int{4, 32}, 1)
	if len(cvf.Rows) != 6 {
		t.Fatalf("coarse-vs-fine rows %d", len(cvf.Rows))
	}
	// TL2 must lead the coarse engines at the high point (its raison d'etre).
	var tl2hi, norecHi float64
	for _, r := range cvf.Rows {
		if r.Threads == 32 {
			switch r.Algo {
			case "tl2":
				tl2hi = r.KTxPerSec
			case "norec":
				norecHi = r.KTxPerSec
			}
		}
	}
	if tl2hi <= norecHi {
		t.Fatalf("tl2 %v <= norec %v at 32 threads", tl2hi, norecHi)
	}
}

// TestSimFigure7Shape asserts the headline result on the generated table:
// at 48 threads RInval-V2 leads NOrec and InvalSTM, and InvalSTM trails
// NOrec at low thread counts.
func TestSimFigure7Shape(t *testing.T) {
	tbl := SimFigure7(50, []int{4, 48}, 1)
	get := func(algo string, n int) float64 {
		for _, r := range tbl.Rows {
			if r.Algo == algo && r.Threads == n {
				return r.KTxPerSec
			}
		}
		t.Fatalf("missing %s/%d", algo, n)
		return 0
	}
	if get("rinval-v2", 48) <= get("norec", 48) {
		t.Error("V2 does not lead NOrec at 48 threads")
	}
	if get("rinval-v2", 48) <= get("invalstm", 48) {
		t.Error("V2 does not lead InvalSTM at 48 threads")
	}
	if get("norec", 4) <= get("invalstm", 4) {
		t.Error("NOrec does not lead InvalSTM at 4 threads")
	}
}

func TestSimAblationReadSetSizeShape(t *testing.T) {
	tbl := SimAblationReadSetSize([]int{8, 512}, 16, 1)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	get := func(algo string) float64 {
		for _, r := range tbl.Rows {
			if r.Algo == algo {
				return r.KTxPerSec
			}
		}
		t.Fatalf("missing %s", algo)
		return 0
	}
	// The NOrec advantage over InvalSTM must narrow as read sets grow
	// (quadratic validation vs linear invalidation, the paper's §II).
	small := get("norec/reads=8") / get("invalstm/reads=8")
	large := get("norec/reads=512") / get("invalstm/reads=512")
	if large >= small {
		t.Fatalf("validation-cost effect absent: ratio %0.2f -> %0.2f", small, large)
	}
	// RInval-V2 dominates on short transactions (server pipeline).
	if get("rinval-v2/reads=8") <= get("norec/reads=8") {
		t.Fatal("V2 did not lead at small read sets")
	}
}
