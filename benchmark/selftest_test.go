package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/ssrg-vt/rinval/container/rbtree"
	"github.com/ssrg-vt/rinval/stm"
)

const specPath = "../" + specFile

// shortPlan runs every code path of a full run in a fraction of the time:
// 1 round × 2 slices × 20 ms, a small tree, short traced cells and batches.
func shortPlan() plan {
	return plan{
		rounds: 1, slices: 2, slice: 20 * time.Millisecond, warmup: 500, tracedTx: 2000, treeKeys: 2048,
		microBatches: 3, microBatch: 200 * time.Microsecond,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// report is one workload's printed block, parsed back.
type report struct {
	title   string
	printed map[string]metric // the "name value unit" lines
	line    resultLine        // the JSON object that ends the block
}

// parseReports splits a run's output into its "# title" blocks and checks the
// shape the contract fixes: every metric line is name, number, unit; each
// name is printed once; the block ends with the JSON result line.
func parseReports(t *testing.T, out string) []report {
	t.Helper()
	var reports []report
	var cur *report
	for _, text := range strings.Split(strings.TrimSpace(out), "\n") {
		switch {
		case strings.HasPrefix(text, "# "):
			reports = append(reports, report{title: text[2:], printed: map[string]metric{}})
			cur = &reports[len(reports)-1]
		case cur == nil || strings.HasPrefix(text, "operations attempted"):
			// host line, or the attempted/failed line
		case strings.HasPrefix(text, "{"):
			dec := json.NewDecoder(strings.NewReader(text))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&cur.line); err != nil {
				t.Fatalf("%s: result line: %v", cur.title, err)
			}
			cur = nil
		default:
			f := strings.Fields(text)
			if len(f) != 3 {
				t.Fatalf("%s: metric line %q is not name, value, unit", cur.title, text)
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("%s: metric line %q: %v", cur.title, text, err)
			}
			if _, dup := cur.printed[f[0]]; dup {
				t.Errorf("%s: %s printed twice", cur.title, f[0])
			}
			cur.printed[f[0]] = metric{f[0], v, f[2]}
		}
	}
	if cur != nil {
		t.Fatalf("%s: block does not end with a result line", cur.title)
	}
	return reports
}

// checkAgainstSpec asserts that a block printed exactly the metrics
// BENCHMARK.json lists, with its units, finite (and positive where the
// driver gates on them), and that nothing failed.
func checkAgainstSpec(t *testing.T, r report, want []specMetric, positive bool) {
	t.Helper()
	if !r.line.Correct || r.line.Failed != 0 || r.line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", r.title, r.line.Correct, r.line.Attempted, r.line.Failed)
	}
	if len(r.printed) != len(want) || len(r.line.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, result line holds %d, %s lists %d", r.title, len(r.printed), len(r.line.Metrics), specFile, len(want))
	}
	for _, w := range want {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", specFile, w.Name)
		}
		got, ok := r.line.Metrics[w.Name]
		if _, printed := r.printed[w.Name]; !ok || !printed {
			t.Errorf("%s: %s is in %s but was not printed", r.title, w.Name, specFile)
			continue
		}
		if got.Unit != w.Unit || r.printed[w.Name].unit != w.Unit {
			t.Errorf("%s: %s has unit %q, %s says %q", r.title, w.Name, got.Unit, specFile, w.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (positive && got.Value <= 0) {
			t.Errorf("%s: %s = %v", r.title, w.Name, got.Value)
		}
	}
}

// The end-to-end run of every workload prints exactly the end-to-end metrics
// of BENCHMARK.json, and the file names exactly the workloads that exist.
func TestEndToEndMatchesSpec(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("%s lists workloads %v, the benchmark has %v", specFile, names, have)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v of %s is outside (0, 0.25]", specFile, m.Bound, m.Name)
		}
	}

	var out bytes.Buffer
	for _, r := range runUntraced(workloads, shortPlan(), 1) {
		for _, err := range r.errs {
			t.Error(err)
		}
		if err := printReport(&out, r.w.name, r.endToEnd(), r.attempted, r.failed); err != nil {
			t.Fatal(err)
		}
	}
	reports := parseReports(t, out.String())
	if len(reports) != len(workloads) {
		t.Fatalf("%d reports for %d workloads", len(reports), len(workloads))
	}
	for _, r := range reports {
		checkAgainstSpec(t, r, sp.EndToEnd, true)
	}
}

// The traced run of every workload prints exactly the per-layer metrics of
// BENCHMARK.json, leaves a trace whose spans add up, reproduces its counts
// from the seed, and shows the controls the workloads were chosen for.
func TestTracedRunMatchesSpec(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.PerLayer); n == 0 || n > 128 {
		t.Fatalf("%s lists %d per-layer metrics", specFile, n)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runTraced(&out, workloads, shortPlan(), 1, dir); err != nil {
		t.Fatal(err)
	}
	reports := parseReports(t, out.String())
	if len(reports) != len(workloads) {
		t.Fatalf("%d reports for %d workloads", len(reports), len(workloads))
	}
	byWorkload := map[string]map[string]jsonValue{}
	for i, r := range reports {
		checkAgainstSpec(t, r, sp.PerLayer, false)
		name := workloads[i].name
		m := r.line.Metrics
		byWorkload[name] = m

		for _, algo := range engines {
			e := algo.String()
			tx := m["span.tx_ns_mean."+e].Value
			parts := m["span.tx_self_ns_mean."+e].Value + m["span.attempt_self_ns_mean."+e].Value + m["span.op_ns_mean."+e].Value
			if tx <= 0 || math.Abs(parts-tx) > 0.01*tx {
				t.Errorf("%s/%s: tx_self + attempt_self + op = %v, tx = %v", name, e, parts, tx)
			}
			if workloads[i].clients == 1 {
				if v := m["core.aborts_per_commit."+e].Value; v != 0 {
					t.Errorf("%s/%s: %v aborts per commit with one client", name, e, v)
				}
				if v := m["span.attempts_per_tx."+e].Value; v != 1 {
					t.Errorf("%s/%s: %v attempts per tx with one client", name, e, v)
				}
			}
		}

		data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("trace-%s.json: %v", name, err)
		}
		for _, algo := range engines {
			te := tf.Engines[algo.String()]
			if te.Tx != int64(shortPlan().tracedTx) || te.Dropped != 0 || len(te.Spans) == 0 {
				t.Errorf("trace-%s.json/%s: %d tx, %d dropped, %d spans", name, algo, te.Tx, te.Dropped, len(te.Spans))
			}
		}
	}

	// scan_ro_c1 is the control for the commit path: no stores, and the
	// commit-server is never asked.
	scan := byWorkload["scan_ro_c1"]
	for _, algo := range engines {
		if v := scan["core.stores_per_tx."+algo.String()].Value; v != 0 {
			t.Errorf("scan_ro_c1/%s: %v stores per tx", algo, v)
		}
	}
	for _, e := range []string{"rinval-v1", "rinval-v2"} {
		if v := scan["core.epochs_per_commit."+e].Value; v != 0 {
			t.Errorf("scan_ro_c1/%s: %v commit-server epochs per commit", e, v)
		}
		if v := byWorkload["commit_short_c1"]["core.epochs_per_commit."+e].Value; v != 1 {
			t.Errorf("commit_short_c1/%s: %v commit-server epochs per commit, want 1", e, v)
		}
	}

	// Counts of a single-client workload repeat exactly from the seed.
	var again bytes.Buffer
	w, _ := workloadByName("scan_ro_c1")
	if err := runTraced(&again, []workload{w}, shortPlan(), 1, dir); err != nil {
		t.Fatal(err)
	}
	second := parseReports(t, again.String())[0].line.Metrics
	for name, v := range scan {
		counted := strings.HasPrefix(name, "core.loads_per_tx.") || strings.HasPrefix(name, "core.stores_per_tx.") ||
			name == "rbtree.loads_per_op" || name == "rbtree.stores_per_op" || name == "bloom.fp_ratio_r64_w2"
		if counted && second[name].Value != v.Value {
			t.Errorf("%s: %v, then %v with the same seed", name, v.Value, second[name].Value)
		}
	}
}

// unexported makes an unexported field reachable, to break what no exported
// function can.
func unexported(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// cutLeftSubtree unlinks the root's left child, leaving the size counter and
// the black heights wrong.
func cutLeftSubtree(tree *rbtree.Tree) {
	rootVar := unexported(reflect.ValueOf(tree).Elem().FieldByName("root"))
	root := rootVar.MethodByName("Peek").Call(nil)[0]
	leftVar := unexported(root.Elem().FieldByName("left"))
	leftVar.MethodByName("Set").Call([]reflect.Value{reflect.Zero(root.Type())})
}

// Each output check must fail when the invariant it guards is broken.
func TestChecksCatchCorruption(t *testing.T) {
	sys := stm.MustNew(stm.Config{Algo: stm.NOrec, MaxThreads: 2, InvalServers: 1})
	defer sys.Close()
	put := func(k *kvInst, key, val int) {
		if err := populate(sys, func(th *stm.Thread) error {
			return th.Atomically(func(tx *stm.Tx) error {
				k.m.Put(tx, key, val)
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		workload, what string
		corrupt        func(instance)
	}{
		{"commit_short_c1", "one account", func(i instance) {
			a := i.(*bankInst).accounts[3]
			a.Set(a.Peek() + 1)
		}},
		{"scan_ro_c1", "one scanned value", func(i instance) {
			v := i.(*scanInst).vars[7]
			v.Set(v.Peek() + 1)
		}},
		{"scan_ro_c1", "one wrong scan sum", func(i instance) { i.(*scanInst).wrong[0]++ }},
		{"kv_contend_c2", "one pair", func(i instance) { put(i.(*kvInst), 10, kvInitial-1) }},
		{"kv_contend_c2", "one failed audit", func(i instance) { i.(*kvInst).wrong[1]++ }},
		{"rbtree_mix_c1", "one tree link", func(i instance) { cutLeftSubtree(i.(*treeInst).tree) }},
		{"rbtree_mix_c1", "one uncounted insert", func(i instance) { i.(*treeInst).net[0]++ }},
	}
	for _, c := range cases {
		w, _ := workloadByName(c.workload)
		inst, err := w.build(sys, shortPlan(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.check(); err != nil {
			t.Errorf("%s: freshly built instance fails its check: %v", c.workload, err)
		}
		c.corrupt(inst)
		if err := inst.check(); err == nil {
			t.Errorf("%s: check passed with %s corrupted", c.workload, c.what)
		}
	}
}

// -aa flags exactly the metrics that moved by more than their bound.
func TestCompareSets(t *testing.T) {
	bounds := map[string]float64{"tx_per_s.norec": 0.10, "setup_s": 0.15}
	first := metrics{{"tx_per_s.norec", 1000, "1/s"}, {"setup_s", 2, "s"}}
	second := metrics{{"tx_per_s.norec", 880, "1/s"}, {"setup_s", 2.2, "s"}}
	rows, err := compareSets(first, second, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].exceeded() || math.Abs(rows[0].diff-0.12) > 1e-9 {
		t.Errorf("a 12 %% drop against a 10 %% bound: diff %v, exceeded %v", rows[0].diff, rows[0].exceeded())
	}
	if rows[1].exceeded() {
		t.Errorf("a 10 %% rise against a 15 %% bound counted as exceeded (diff %v)", rows[1].diff)
	}
	if _, err := compareSets(metrics{{"unknown", 1, "s"}}, metrics{{"unknown", 1, "s"}}, bounds); err == nil {
		t.Error("a metric without a bound was accepted")
	}
}

// The command line is the driver's: --workload, --seed, --seconds, --trace 0|1.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no_such_workload"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"stray"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
