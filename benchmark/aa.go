package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// specFile is the benchmark's contract at the root of the repository.
const specFile = "BENCHMARK.json"

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// aaRow is one end-to-end metric of two runs of the same code.
type aaRow struct {
	name          string
	first, second float64
	diff, bound   float64 // |second − first| ÷ first, and the most it may be
}

func (r aaRow) exceeded() bool { return r.diff > r.bound }

// compareSets pairs the metrics of two runs with their bounds.
func compareSets(first, second metrics, bounds map[string]float64) ([]aaRow, error) {
	rows := make([]aaRow, len(first))
	for i, a := range first {
		bound, ok := bounds[a.name]
		if !ok {
			return nil, fmt.Errorf("%s has no end-to-end metric %s", specFile, a.name)
		}
		b := second[i].value
		rows[i] = aaRow{a.name, a.value, b, ratio(math.Abs(b-a.value), a.value), bound}
	}
	return rows, nil
}

// runAA runs the end-to-end suite twice back to back in one process and
// compares the two sets: identical code must agree within each metric's
// bound, or the bound (or the protocol) is wrong.
func runAA(stdout io.Writer, specPath string, ws []workload, p plan, seed uint64) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from %s in the working directory: %w", specFile, err)
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Fprintln(stdout, host(seed, p))
	a, b := runUntraced(ws, p, seed), runUntraced(ws, p, seed)
	exceeded, failed := 0, uint64(0)
	for i := range a {
		rows, err := compareSets(a[i].endToEnd(), b[i].endToEnd(), bounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# %s A/A\n%-28s %16s %16s %8s %7s\n", a[i].w.name, "metric", "first", "second", "diff", "bound")
		for _, r := range rows {
			mark := ""
			if r.exceeded() {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(stdout, "%-28s %16.4f %16.4f %7.2f%% %6.1f%%%s\n", r.name, r.first, r.second, 100*r.diff, 100*r.bound, mark)
		}
		printErrs(append(a[i].errs, b[i].errs...))
		failed += a[i].failed + b[i].failed
	}
	if failed > 0 {
		return errIncorrect
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}
