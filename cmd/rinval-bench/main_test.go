package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/ssrg-vt/rinval/internal/bench"
)

// simExps lists every experiment with the table count run returns for it.
var simExps = []struct {
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

// simTables runs every experiment once at threads 2,4, for the tests that
// inspect the tables.
var simTables = sync.OnceValues(func() (map[string][]*bench.Table, error) {
	out := map[string][]*bench.Table{}
	for _, c := range simExps {
		tables, err := run(c.exp, []int{2, 4}, "", 1)
		if err != nil {
			return nil, err
		}
		out[c.exp] = tables
	}
	return out, nil
})

func TestRunDispatchSim(t *testing.T) {
	all, err := simTables()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range simExps {
		got := all[c.exp]
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
	got, err := run("fig8", []int{2}, "genome", 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d tables, err %v", len(got), err)
	}
}

// TestRunDispatchErrors: an unknown name — including the retired live-only
// experiments ablBloom and latency — and an unknown fig8 app are errors.
func TestRunDispatchErrors(t *testing.T) {
	for _, c := range []struct{ exp, app string }{
		{"nope", ""},
		{"ablBloom", ""},
		{"latency", ""},
		{"fig8", "bogus"},
	} {
		if _, err := run(c.exp, []int{2}, c.app, 1); err == nil {
			t.Errorf("run(%s, app %q) accepted", c.exp, c.app)
		}
	}
}

// TestExpHelpAndNames pins the --help and error-message contracts: one line
// per experiment in the help text, and the ten names, sorted, in the
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
	want := []string{"ablJitter", "ablK", "ablReadSet", "ablSteps", "ablTL2",
		"fig2", "fig3", "fig7a", "fig7b", "fig8"}
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
		_, err := run(exp, []int{2}, "", 1)
		if err == nil || err.Error() != errUnknownExp(exp).Error() ||
			!strings.HasSuffix(err.Error(), "`go run ./benchmark`") {
			t.Errorf("run(%s) = %v, want the unknown-experiment error ending at the benchmark", exp, err)
		}
	}
}

// TestSVGFileNamesDistinct renders every experiment's tables into one
// directory: no chart may overwrite another, and the charts recorded in
// results/figures keep their names.
func TestSVGFileNamesDistinct(t *testing.T) {
	all, err := simTables()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seen := map[string]string{}
	for _, c := range simExps {
		for _, tb := range all[c.exp] {
			name := tb.SVGFileName()
			if prev, dup := seen[name]; dup {
				t.Errorf("%q and %q both render to %s", prev, tb.Title, name)
			}
			seen[name] = tb.Title
			if err := writeSVG(dir, tb, c.exp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != len(seen) {
		t.Errorf("%d SVG files for %d tables", len(files), len(seen))
	}
	recorded, _ := filepath.Glob("../../results/figures/*.svg")
	if len(recorded) == 0 {
		t.Fatal("no recorded figures found")
	}
	for _, path := range recorded {
		if _, ok := seen[filepath.Base(path)]; !ok {
			t.Errorf("recorded figure %s is no longer produced", filepath.Base(path))
		}
	}
}

// TestSimResultsReproduce regenerates the two quickest sections of
// results/sim_results.txt (≈ 0.7 s together) with the arguments that recorded
// them and compares each byte for byte; `make sim-check` diffs the whole file.
func TestSimResultsReproduce(t *testing.T) {
	recorded, err := os.ReadFile("../../results/sim_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		exp     string
		threads []int
	}{
		{"fig2", []int{8, 16, 32, 48}},
		{"ablJitter", nil},
	} {
		tables, err := run(c.exp, c.threads, "", 1)
		if err != nil {
			t.Fatalf("%s: %v", c.exp, err)
		}
		for _, tb := range tables {
			var got bytes.Buffer
			tb.Format(&got)
			if !bytes.Contains(recorded, got.Bytes()) {
				t.Errorf("%s: %q differs from results/sim_results.txt; regenerated:\n%s", c.exp, tb.Title, got.String())
			}
		}
	}
}
