package sim

import (
	"testing"
)

func shortCfg(e Engine, threads int) Config {
	c := DefaultConfig(e, threads)
	c.Duration = 3_000_000
	return c
}

func TestEngineStringRoundTrip(t *testing.T) {
	for _, e := range Engines {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("round trip %v: %v %v", e, got, err)
		}
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

func TestDeterminism(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	for _, e := range Engines {
		a := MustRun(p, w, shortCfg(e, 16))
		b := MustRun(p, w, shortCfg(e, 16))
		if a != b {
			t.Fatalf("%v: nondeterministic results\n%+v\n%+v", e, a, b)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	c1 := shortCfg(NOrec, 16)
	c2 := c1
	c2.Seed = 99
	a := MustRun(p, w, c1)
	b := MustRun(p, w, c2)
	if a.Commits == b.Commits && a.Aborts == b.Aborts {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestValidation(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	if _, err := Run(p, w, Config{Engine: NOrec, Threads: 0, Cores: 64, Duration: 1000}); err == nil {
		t.Fatal("threads=0 accepted")
	}
	if _, err := Run(p, w, Config{Engine: NOrec, Threads: 4, Cores: 1, Duration: 1000}); err == nil {
		t.Fatal("cores=1 accepted")
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	for _, e := range Engines {
		r := MustRun(p, w, shortCfg(e, 32))
		a, b, c, d := r.Breakdown()
		sum := a + b + c + d
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%v: breakdown sums to %v", e, sum)
		}
		if r.Commits == 0 {
			t.Fatalf("%v: no commits", e)
		}
	}
}

func TestZeroCommitsBreakdown(t *testing.T) {
	var r Result
	a, b, c, d := r.Breakdown()
	if a+b+c+d != 0 {
		t.Fatal("empty result breakdown nonzero")
	}
	if r.ThroughputKTxPerSec(DefaultParams()) != 0 || r.AbortRate() != 0 {
		t.Fatal("empty result rates nonzero")
	}
}

// TestMutexDoesNotScale: the coarse-lock baseline's throughput must be
// roughly flat (serialized) as threads grow.
func TestMutexDoesNotScale(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	t1 := MustRun(p, w, shortCfg(Mutex, 1)).Commits
	t32 := MustRun(p, w, shortCfg(Mutex, 32)).Commits
	if float64(t32) > 3*float64(t1) {
		t.Fatalf("mutex scaled: 1thr=%d 32thr=%d", t1, t32)
	}
}

// TestNOrecBeatsMutexMidScale: at moderate thread counts an STM must beat
// the global lock on a read-heavy workload.
func TestNOrecBeatsMutexMidScale(t *testing.T) {
	p := DefaultParams()
	w := RBTree(80)
	m := MustRun(p, w, shortCfg(Mutex, 8)).Commits
	n := MustRun(p, w, shortCfg(NOrec, 8)).Commits
	if n <= m {
		t.Fatalf("NOrec (%d) did not beat mutex (%d) at 8 threads", n, m)
	}
}

// TestPaperShapeHighContention reproduces Figure 7's key claims at 48
// threads: RInval-V2 beats RInval-V1, which beats InvalSTM; RInval-V2 also
// beats NOrec at high thread counts.
func TestPaperShapeHighContention(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	at := func(e Engine) uint64 { return MustRun(p, w, shortCfg(e, 48)).Commits }
	norec, inval := at(NOrec), at(InvalSTM)
	v1, v2 := at(RInvalV1), at(RInvalV2)
	if v2 <= v1 {
		t.Errorf("V2 (%d) <= V1 (%d) at 48 threads", v2, v1)
	}
	if v1 <= inval {
		t.Errorf("V1 (%d) <= InvalSTM (%d) at 48 threads", v1, inval)
	}
	if v2 <= norec {
		t.Errorf("V2 (%d) <= NOrec (%d) at 48 threads", v2, norec)
	}
}

// TestPaperShapeLowContention: at low thread counts NOrec should lead the
// invalidation family (paper: "when contention is low, NOrec performs
// better than all other algorithms").
func TestPaperShapeLowContention(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	norec := MustRun(p, w, shortCfg(NOrec, 4)).Commits
	inval := MustRun(p, w, shortCfg(InvalSTM, 4)).Commits
	if norec <= inval {
		t.Errorf("NOrec (%d) <= InvalSTM (%d) at 4 threads", norec, inval)
	}
}

// TestLabyrinthConverges: on compute-dominated workloads all engines must
// land within a small factor of each other (paper Figure 8c).
func TestLabyrinthConverges(t *testing.T) {
	p := DefaultParams()
	w, ok := STAMP("labyrinth")
	if !ok {
		t.Fatal("labyrinth preset missing")
	}
	// The paper compares the STM engines only (Mutex serializes the long
	// in-transaction BFS and is off the chart).
	var lo, hi uint64
	for i, e := range []Engine{NOrec, InvalSTM, RInvalV1, RInvalV2, RInvalV3} {
		c := MustRun(p, w, shortCfg(e, 32)).Commits
		if i == 0 {
			lo, hi = c, c
		} else {
			lo, hi = min(lo, c), max(hi, c)
		}
	}
	if lo == 0 || float64(hi)/float64(lo) > 1.6 {
		t.Fatalf("labyrinth engines diverge: lo=%d hi=%d", lo, hi)
	}
}

// TestGenomeReadIntensiveShape: NOrec leads the invalidation engines on the
// read-intensive genome (paper Figure 8e), with RInval between NOrec and
// InvalSTM.
func TestGenomeReadIntensiveShape(t *testing.T) {
	p := DefaultParams()
	w, _ := STAMP("genome")
	cfg := func(e Engine) Config { c := shortCfg(e, 48); c.Duration = 5_000_000; return c }
	norec := MustRun(p, w, cfg(NOrec)).Commits
	inval := MustRun(p, w, cfg(InvalSTM)).Commits
	v2 := MustRun(p, w, cfg(RInvalV2)).Commits
	if norec <= v2 {
		t.Errorf("genome: NOrec (%d) <= RInval-V2 (%d)", norec, v2)
	}
	if v2 <= inval {
		t.Errorf("genome: RInval-V2 (%d) <= InvalSTM (%d)", v2, inval)
	}
}

// TestInvalCommitCostExceedsNOrec reproduces Figure 2's observation: commit
// is more expensive under InvalSTM than under NOrec (the invalidation scan
// runs inside the critical section), measured per committed transaction.
func TestInvalCommitCostExceedsNOrec(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	perCommit := func(e Engine) float64 {
		r := MustRun(p, w, shortCfg(e, 32))
		return float64(r.CommitCycles) / float64(r.Commits)
	}
	cN, cI := perCommit(NOrec), perCommit(InvalSTM)
	if cI <= cN {
		t.Fatalf("InvalSTM commit cost %.0f <= NOrec %.0f cycles/commit", cI, cN)
	}
}

// TestSTAMPPresetsComplete ensures every Figure 3/8 app is modeled.
func TestSTAMPPresetsComplete(t *testing.T) {
	for _, name := range STAMPNames {
		w, ok := STAMP(name)
		if !ok || w.Name != name {
			t.Fatalf("preset %q missing or misnamed", name)
		}
	}
	if _, ok := STAMP("yada"); ok {
		t.Fatal("yada should be absent (excluded by the paper)")
	}
}

// TestV3BeatsV2UnderInvalLag: with one invalidation server periodically
// stalled, V3's step-ahead window keeps the commit pipeline moving while V2
// blocks on every stall (the paper's §IV-C robustness argument). Without
// lag, V2 and V3 must be near-identical (the paper withheld V3's curves for
// this reason).
func TestV3BeatsV2UnderInvalLag(t *testing.T) {
	w := RBTree(50)

	clean := DefaultParams()
	v2clean := MustRun(clean, w, shortCfg(RInvalV2, 48)).Commits
	v3clean := MustRun(clean, w, shortCfg(RInvalV3, 48)).Commits
	ratio := float64(v3clean) / float64(v2clean)
	if ratio < 0.95 || ratio > 1.1 {
		t.Fatalf("without lag V3/V2 = %.2f, want ~1", ratio)
	}

	// Short, frequent stalls: the step-ahead window can absorb a stall of
	// up to ~stepsAhead commit-service times; longer stalls block V3 too
	// (the ring bound), so the interesting regime is stalls comparable to
	// the window.
	lag := DefaultParams()
	lag.InvalLagProb = 0.05
	lag.InvalLagCycles = 5_000
	v2lag := MustRun(lag, w, shortCfg(RInvalV2, 48)).Commits
	c3 := shortCfg(RInvalV3, 48)
	c3.StepsAhead = 8
	v3lag := MustRun(lag, w, c3).Commits
	if v3lag <= v2lag {
		t.Fatalf("under lag V3 (%d) did not beat V2 (%d)", v3lag, v2lag)
	}
	if v2lag >= v2clean {
		t.Fatalf("lag did not hurt V2 (%d vs clean %d)", v2lag, v2clean)
	}
}

// TestMoreInvalServersHelp: V2's service time shrinks with more
// invalidation servers up to the point Amdahl flattens it (paper §IV-B).
func TestMoreInvalServersHelp(t *testing.T) {
	p := DefaultParams()
	w := RBTree(50)
	c1 := shortCfg(RInvalV2, 48)
	c1.InvalServers = 1
	c4 := shortCfg(RInvalV2, 48)
	c4.InvalServers = 4
	r1 := MustRun(p, w, c1).Commits
	r4 := MustRun(p, w, c4).Commits
	if r4 <= r1 {
		t.Fatalf("4 invalidation servers (%d) not better than 1 (%d)", r4, r1)
	}
}

// TestShardsDivideCommitBottleneck carries the sharding claim EXPERIMENTS.md
// cites (`go test ./internal/sim -run TestShardsDivide -v` prints the
// speedups): on disjoint write-only transactions at 64 threads — the regime
// where the one commit stream is the bottleneck — S streams on S modeled
// cores retire commits S-fold faster, and a cross-shard share, which occupies
// two streams per commit, gives part of that back.
func TestShardsDivideCommitBottleneck(t *testing.T) {
	p := DefaultParams()
	commits := func(e Engine, shards int, cross float64) uint64 {
		w := Workload{Name: "disjoint", Reads: 4, Writes: 4, PerReadWork: 60, NonTxWork: 400, CrossShardFrac: cross}
		c := DefaultConfig(e, 64)
		c.Shards = shards
		c.InvalServers = 2 * shards // constant invalidation capacity per stream
		r := MustRun(p, w, c)
		if again := MustRun(p, w, c); again != r {
			t.Fatalf("%v S=%d cross=%.2f: nondeterministic\n%+v\n%+v", e, shards, cross, r, again)
		}
		return r.Commits
	}
	for _, e := range []Engine{RInvalV1, RInvalV2} {
		base := float64(commits(e, 1, 0))
		disjoint := float64(commits(e, 4, 0)) / base
		crossed := float64(commits(e, 4, 0.10)) / base
		t.Logf("%v at S=4: %.2fx the S=1 commit rate, %.2fx with 10%% cross-shard commits", e, disjoint, crossed)
		if disjoint < 2 {
			t.Errorf("%v: S=4 is %.2fx S=1 on disjoint keys, want >= 2x", e, disjoint)
		}
		if crossed >= disjoint {
			t.Errorf("%v: 10%% cross-shard commits cost nothing at S=4 (%.2fx vs %.2fx)", e, crossed, disjoint)
		}
	}
}
