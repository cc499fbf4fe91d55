package bench

import (
	"fmt"
	"time"

	"github.com/ssrg-vt/rinval/internal/sim"
	"github.com/ssrg-vt/rinval/stm"
)

// STM engines compared in the paper's plots (Mutex is the Figure 1 strawman
// and is reported by the ablation experiments only).
var figureAlgos = []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2}

// simEngine maps a live engine to its simulator model.
func simEngine(a stm.Algo) sim.Engine {
	switch a {
	case stm.Mutex:
		return sim.Mutex
	case stm.NOrec:
		return sim.NOrec
	case stm.InvalSTM:
		return sim.InvalSTM
	case stm.RInvalV1:
		return sim.RInvalV1
	case stm.RInvalV2:
		return sim.RInvalV2
	default:
		return sim.RInvalV3
	}
}

func simRow(r sim.Result, p sim.Params) Row {
	read, commit, abort, other := r.Breakdown()
	return Row{
		Algo:       r.Engine.String(),
		Threads:    r.Threads,
		KTxPerSec:  r.ThroughputKTxPerSec(p),
		Elapsed:    time.Duration(float64(r.Cycles) / (p.GHz * 1e9) * float64(time.Second)),
		Commits:    r.Commits,
		Aborts:     r.Aborts,
		ReadFrac:   read,
		CommitFrac: commit,
		AbortFrac:  abort,
		OtherFrac:  other,
	}
}

// SimFigure7 regenerates Figure 7 (red-black tree throughput, 64K elements)
// on the modeled 64-core machine for the given lookup percentage.
func SimFigure7(readPct int, threads []int, seed uint64) *Table {
	p := sim.DefaultParams()
	w := sim.RBTree(readPct)
	t := &Table{
		Title: fmt.Sprintf("Figure 7 (%d%% reads): red-black tree throughput, simulated 64-core machine", readPct),
		Note:  "K transactions/second; shapes match the paper, absolute numbers are synthetic",
	}
	for _, a := range figureAlgos {
		for _, n := range threads {
			c := sim.DefaultConfig(simEngine(a), n)
			c.Seed = seed
			t.Rows = append(t.Rows, simRow(sim.MustRun(p, w, c), p))
		}
	}
	t.Sort()
	return t
}

// SimFigure2 regenerates Figure 2 (red-black tree critical-path breakdown,
// NOrec vs InvalSTM, normalized) at the paper's thread counts.
func SimFigure2(threads []int, seed uint64) *Table {
	p := sim.DefaultParams()
	w := sim.RBTree(50)
	t := &Table{
		Title: "Figure 2: validation/commit/other breakdown on red-black tree (simulated)",
		Note:  "read% includes validation; other% is non-transactional work",
	}
	for _, a := range []stm.Algo{stm.NOrec, stm.InvalSTM} {
		for _, n := range threads {
			c := sim.DefaultConfig(simEngine(a), n)
			c.Seed = seed
			t.Rows = append(t.Rows, simRow(sim.MustRun(p, w, c), p))
		}
	}
	t.Sort()
	return t
}

// SimFigure3 regenerates Figure 3 (STAMP breakdown, NOrec vs InvalSTM) on
// the modeled machine.
func SimFigure3(threads int, seed uint64) *Table {
	p := sim.DefaultParams()
	t := &Table{
		Title: fmt.Sprintf("Figure 3: STAMP critical-path breakdown at %d threads (simulated)", threads),
	}
	for _, app := range sim.STAMPNames {
		w, _ := sim.STAMP(app)
		for _, a := range []stm.Algo{stm.NOrec, stm.InvalSTM} {
			c := sim.DefaultConfig(simEngine(a), threads)
			c.Seed = seed
			r := simRow(sim.MustRun(p, w, c), p)
			r.Algo = app + "/" + r.Algo
			t.Rows = append(t.Rows, r)
		}
	}
	return t
}

// SimFigure8 regenerates Figure 8 (STAMP execution time) for one app: the
// time to complete a fixed transaction budget, derived from simulated
// throughput.
func SimFigure8(app string, threads []int, seed uint64) (*Table, error) {
	w, ok := sim.STAMP(app)
	if !ok {
		return nil, fmt.Errorf("bench: unknown sim app %q", app)
	}
	p := sim.DefaultParams()
	t := &Table{
		Title: fmt.Sprintf("Figure 8 (%s): execution time, simulated 64-core machine", app),
		Note:  "elapsed = time to retire a fixed transaction budget at the simulated rate",
	}
	const budget = 200_000 // transactions per run
	for _, a := range figureAlgos {
		for _, n := range threads {
			c := sim.DefaultConfig(simEngine(a), n)
			c.Seed = seed
			r := sim.MustRun(p, w, c)
			row := simRow(r, p)
			if r.Commits > 0 {
				perTx := float64(r.Cycles) / float64(r.Commits)
				row.Elapsed = time.Duration(perTx * budget / (p.GHz * 1e9) * float64(time.Second))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Sort()
	return t, nil
}

// SimAblationInvalServers sweeps the invalidation-server count for
// RInval-V2 (the paper's §IV-B observation that 4-8 suffice on 64 cores).
func SimAblationInvalServers(counts []int, threads int, seed uint64) *Table {
	p := sim.DefaultParams()
	w := sim.RBTree(50)
	t := &Table{
		Title: fmt.Sprintf("Ablation: RInval-V2 invalidation servers at %d threads (simulated)", threads),
	}
	for _, k := range counts {
		c := sim.DefaultConfig(sim.RInvalV2, threads)
		c.InvalServers = k
		c.Seed = seed
		r := simRow(sim.MustRun(p, w, c), p)
		r.Algo = fmt.Sprintf("v2/k=%d", k)
		t.Rows = append(t.Rows, r)
	}
	return t
}

// SimAblationJitter compares engines with OS jitter on and off — the
// paper's §IV-A argument that a descheduled commit executor blocks everyone
// while a dedicated commit-server does not.
func SimAblationJitter(threads int, seed uint64) *Table {
	w := sim.RBTree(50)
	t := &Table{
		Title: fmt.Sprintf("Ablation: OS jitter sensitivity at %d threads (simulated)", threads),
		Note:  "jitter deschedules lock holders; RInval servers are pinned and exempt",
	}
	for _, jitter := range []bool{false, true} {
		p := sim.DefaultParams()
		if !jitter {
			p.JitterProb = 0
		} else {
			p.JitterProb = 0.002
		}
		for _, a := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV2} {
			c := sim.DefaultConfig(simEngine(a), threads)
			c.Seed = seed
			r := simRow(sim.MustRun(p, w, c), p)
			if jitter {
				r.Algo += "+jitter"
			}
			t.Rows = append(t.Rows, r)
		}
	}
	return t
}

// SimAblationCoarseVsFine compares the coarse-grained family against the
// TL2-style fine-grained baseline (per-location locks) on the modeled
// machine — the paper's §III locking-granularity trade-off.
func SimAblationCoarseVsFine(threads []int, seed uint64) *Table {
	p := sim.DefaultParams()
	w := sim.RBTree(50)
	t := &Table{
		Title: "Ablation: coarse-grained family vs fine-grained TL2 (simulated)",
		Note:  "TL2 has no global serialization point but pays per-write CAS traffic and commit-time validation",
	}
	for _, e := range []sim.Engine{sim.NOrec, sim.RInvalV2, sim.TL2} {
		for _, n := range threads {
			c := sim.DefaultConfig(e, n)
			c.Seed = seed
			t.Rows = append(t.Rows, simRow(sim.MustRun(p, w, c), p))
		}
	}
	return t
}

// SimAblationStepsAhead compares RInval-V2 against RInval-V3 with injected
// invalidation-server lag (the paper's §IV-C scenario: one server delayed by
// OS scheduling or paging). Without lag V3 ~= V2, matching the paper's
// decision to withhold V3's curves.
func SimAblationStepsAhead(steps []int, threads int, seed uint64) *Table {
	p := sim.DefaultParams()
	p.InvalLagProb = 0.05
	p.InvalLagCycles = 5_000
	w := sim.RBTree(50)
	t := &Table{
		Title: fmt.Sprintf("Ablation: V3 step-ahead window under invalidation-server lag (%d threads, simulated)", threads),
		Note:  "one server stalls 5K cycles on 5% of commits; V2 blocks each time, V3's window absorbs stalls up to ~steps x commit service",
	}
	c := sim.DefaultConfig(sim.RInvalV2, threads)
	c.Seed = seed
	r := simRow(sim.MustRun(p, w, c), p)
	r.Algo = "v2"
	t.Rows = append(t.Rows, r)
	for _, s := range steps {
		c := sim.DefaultConfig(sim.RInvalV3, threads)
		c.StepsAhead = s
		c.Seed = seed
		r := simRow(sim.MustRun(p, w, c), p)
		r.Algo = fmt.Sprintf("v3/steps=%d", s)
		t.Rows = append(t.Rows, r)
	}
	return t
}

// SimAblationReadSetSize sweeps the transaction read-set size on the
// modeled machine, holding everything else fixed.
func SimAblationReadSetSize(readSets []int, threads int, seed uint64) *Table {
	p := sim.DefaultParams()
	t := &Table{
		Title: fmt.Sprintf("Ablation: validation cost vs read-set size (%d threads, simulated)", threads),
		Note:  "NOrec revalidation is O(prefix) per timestamp move; invalidation reads are O(1)",
	}
	for _, n := range readSets {
		w := sim.ListTraversal(n)
		for _, a := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV2} {
			c := sim.DefaultConfig(simEngine(a), threads)
			c.Seed = seed
			r := simRow(sim.MustRun(p, w, c), p)
			r.Algo = fmt.Sprintf("%s/reads=%d", a, n)
			t.Rows = append(t.Rows, r)
		}
	}
	return t
}
