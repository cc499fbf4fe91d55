// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark prints (or reports as metrics) the same series the paper
// plots; run them all with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run the deterministic 64-core discrete-event model
// (paper-shape results on any host); live numbers on this host come from the
// repository benchmark, `go run ./benchmark`. EXPERIMENTS.md records
// paper-vs-measured for every entry.
package rinval_test

import (
	"testing"

	"github.com/ssrg-vt/rinval/internal/bench"
	"github.com/ssrg-vt/rinval/internal/sim"
	"github.com/ssrg-vt/rinval/stm"
)

// paperThreads is the thread axis the paper sweeps.
var paperThreads = []int{2, 4, 8, 16, 24, 32, 48, 64}

// reportSeries publishes one throughput metric per (algo, threads) cell.
func reportSeries(b *testing.B, t *bench.Table) {
	b.Helper()
	for _, r := range t.Rows {
		b.ReportMetric(r.KTxPerSec, r.Algo+"/"+itoa(r.Threads)+"_ktx/s")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Figure 2: red-black tree critical-path breakdown ---

func BenchmarkFigure2Sim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SimFigure2([]int{8, 16, 32, 48}, 1)
		if i == 0 {
			for _, r := range t.Rows {
				b.ReportMetric(100*r.CommitFrac, r.Algo+"/"+itoa(r.Threads)+"_commit%")
			}
		}
	}
}

// --- Figure 3: STAMP breakdown ---

func BenchmarkFigure3Sim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SimFigure3(32, 1)
		if i == 0 {
			for _, r := range t.Rows {
				b.ReportMetric(100*r.CommitFrac, r.Algo+"_commit%")
			}
		}
	}
}

// --- Figure 7: red-black tree throughput ---

func BenchmarkFigure7aSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SimFigure7(50, paperThreads, 1)
		if i == 0 {
			reportSeries(b, t)
		}
	}
}

func BenchmarkFigure7bSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SimFigure7(80, paperThreads, 1)
		if i == 0 {
			reportSeries(b, t)
		}
	}
}

// --- Figure 8: STAMP execution times (one benchmark per panel) ---

func benchFig8Sim(b *testing.B, app string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := bench.SimFigure8(app, paperThreads, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range t.Rows {
				b.ReportMetric(r.Elapsed.Seconds()*1e3, r.Algo+"/"+itoa(r.Threads)+"_ms")
			}
		}
	}
}

func BenchmarkFigure8KmeansSim(b *testing.B)    { benchFig8Sim(b, "kmeans") }
func BenchmarkFigure8Ssca2Sim(b *testing.B)     { benchFig8Sim(b, "ssca2") }
func BenchmarkFigure8LabyrinthSim(b *testing.B) { benchFig8Sim(b, "labyrinth") }
func BenchmarkFigure8IntruderSim(b *testing.B)  { benchFig8Sim(b, "intruder") }
func BenchmarkFigure8GenomeSim(b *testing.B)    { benchFig8Sim(b, "genome") }
func BenchmarkFigure8VacationSim(b *testing.B)  { benchFig8Sim(b, "vacation") }

// --- Ablations (DESIGN.md A1, A2, A5, A6) ---

// BenchmarkAblationInvalServers sweeps RInval-V2's invalidation-server
// count (paper §IV-B: 4-8 suffice on 64 cores).
func BenchmarkAblationInvalServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SimAblationInvalServers([]int{1, 2, 4, 8, 16}, 48, 1)
		if i == 0 {
			for _, r := range t.Rows {
				b.ReportMetric(r.KTxPerSec, r.Algo+"_ktx/s")
			}
		}
	}
}

// BenchmarkAblationStepsAhead sweeps RInval-V3's step-ahead window under
// injected invalidation-server delay (paper §IV-C: V3 tolerates a lagging
// server; without lag V3 ~= V2).
func BenchmarkAblationStepsAhead(b *testing.B) {
	p := sim.DefaultParams()
	w := sim.RBTree(50)
	for i := 0; i < b.N; i++ {
		for _, steps := range []int{1, 2, 4, 8} {
			c := sim.DefaultConfig(sim.RInvalV3, 48)
			c.StepsAhead = steps
			c.Duration = 10_000_000
			r := sim.MustRun(p, w, c)
			if i == 0 {
				b.ReportMetric(r.ThroughputKTxPerSec(p), "steps"+itoa(steps)+"_ktx/s")
			}
		}
	}
}

// BenchmarkAblationReadSetSize sweeps transaction read-set size — the
// paper's §II validation-vs-invalidation cost argument.
func BenchmarkAblationReadSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SimAblationReadSetSize([]int{8, 128}, 16, 1)
		if i == 0 {
			for _, r := range t.Rows {
				b.ReportMetric(r.KTxPerSec, r.Algo+"_ktx/s")
			}
		}
	}
}

// BenchmarkAblationCoarseVsFine compares the coarse family against the
// TL2-style fine-grained baseline (§III granularity trade-off).
func BenchmarkAblationCoarseVsFine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.SimAblationCoarseVsFine([]int{4, 48}, 1)
		if i == 0 {
			for _, r := range t.Rows {
				b.ReportMetric(r.KTxPerSec, r.Algo+"/"+itoa(r.Threads)+"_ktx/s")
			}
		}
	}
}

// BenchmarkEngineSingleThreadOverhead measures the per-transaction cost of
// each engine with no contention — the "price of generality" the paper's
// Figure 1 discusses.
func BenchmarkEngineSingleThreadOverhead(b *testing.B) {
	for _, a := range stm.Algos {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			sys, err := stm.New(stm.Config{Algo: a, MaxThreads: 2, InvalServers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			th := sys.MustRegister()
			defer th.Close()
			v := stm.NewVar(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomically(func(tx *stm.Tx) error {
					v.Store(tx, v.Load(tx)+1)
					return nil
				})
			}
		})
	}
}
