package main

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRunDispatchSim(t *testing.T) {
	ths := []int{2, 4}
	cases := []struct {
		exp    string
		tables int
	}{
		{"fig7a", 1},
		{"fig7b", 1},
		{"fig2", 1},
		{"fig3", 1},
		{"ablK", 1},
		{"ablJitter", 1},
		{"ablSteps", 1},
		{"ablReadSet", 1},
		{"ablTL2", 1},
		{"fig8", 6},
	}
	for _, c := range cases {
		got, err := run(c.exp, "sim", ths, "", 20*time.Millisecond, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.exp, err)
		}
		if len(got) != c.tables {
			t.Fatalf("%s: %d tables, want %d", c.exp, len(got), c.tables)
		}
		for _, tb := range got {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table %q", c.exp, tb.Title)
			}
		}
	}
}

func TestRunFig8SingleApp(t *testing.T) {
	got, err := run("fig8", "sim", []int{2}, "genome", time.Millisecond, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d tables, err %v", len(got), err)
	}
}

func TestRunDispatchErrors(t *testing.T) {
	ths := []int{2}
	for _, c := range []struct{ exp, mode string }{
		{"nope", "sim"},
		{"fig7a", "warp"},
		{"fig3", "live"},
		{"ablK", "live"},
		{"ablJitter", "live"},
		{"ablSteps", "live"},
		{"ablTL2", "live"},
		{"ablBloom", "sim"},
		{"fig8", "sim"}, // with bogus app below
	} {
		app := ""
		if c.exp == "fig8" {
			app = "bogus"
		}
		if _, err := run(c.exp, c.mode, ths, app, time.Millisecond, 1); err == nil {
			t.Errorf("run(%s,%s) accepted", c.exp, c.mode)
		}
	}
}

// TestExpHelpAndNames pins the --help and error-message contracts: one line
// per experiment in the help text, and the twelve names, sorted, in the
// unknown-experiment message.
func TestExpHelpAndNames(t *testing.T) {
	help := expHelp()
	for _, e := range validExps {
		if !strings.Contains(help, e.name) || !strings.Contains(help, e.what) {
			t.Errorf("help text missing %q line", e.name)
		}
	}
	if lines := strings.Count(help, "\n"); lines != len(validExps) {
		t.Errorf("help text has %d experiment lines, want %d", lines, len(validExps))
	}
	want := []string{"ablBloom", "ablJitter", "ablK", "ablReadSet", "ablSteps", "ablTL2",
		"fig2", "fig3", "fig7a", "fig7b", "fig8", "latency"}
	if names := expNamesSorted(); !slices.Equal(names, want) {
		t.Errorf("experiment names = %v, want %v", names, want)
	}
}

// TestRetiredSweepsAreUnknown: the six sweep names the benchmark superseded
// get the unknown-experiment error, which ends by naming the benchmark.
func TestRetiredSweepsAreUnknown(t *testing.T) {
	for _, exp := range []string{"groupcommit", "conflict", "shardsweep", "latencyslo", "mvreadonly", "sloburn"} {
		if isExp(exp) {
			t.Errorf("%s is still a valid experiment", exp)
		}
		_, err := run(exp, "live", []int{2}, "", time.Millisecond, 1)
		if err == nil || err.Error() != errUnknownExp(exp).Error() ||
			!strings.HasSuffix(err.Error(), "`go run ./benchmark`") {
			t.Errorf("run(%s) = %v, want the unknown-experiment error ending at the benchmark", exp, err)
		}
	}
}

func TestRunLiveQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("live run")
	}
	got, err := run("fig7a", "live", []int{2}, "", 15*time.Millisecond, 1)
	if err != nil || len(got) != 1 || len(got[0].Rows) != 4 {
		t.Fatalf("live fig7a: %v", err)
	}
}
