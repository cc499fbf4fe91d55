package core

import (
	"sync"
	"testing"

	"github.com/ssrg-vt/rinval/internal/bloom"
)

// collidingVars returns two freshly allocated Vars whose ids collide in a
// filter with geometry p — their single-element bloom signatures intersect —
// plus a third Var whose signature is disjoint from the first's. The search
// is deterministic: Var ids come off the global counter, and the double-hash
// positions are a pure function of the id.
func collidingVars(t *testing.T, p bloom.Params) (a, b, disjoint *Var) {
	t.Helper()
	sig := func(v *Var) *bloom.Filter {
		f := bloom.NewFilter(p)
		f.Add(v.ID())
		return f
	}
	type cand struct {
		v *Var
		f *bloom.Filter
	}
	var cands []cand
	for n := 0; n < 4096; n++ {
		nv := NewVar(0)
		nf := sig(nv)
		for _, c := range cands {
			if a == nil && c.f.Intersects(nf) {
				a, b = c.v, nv
			}
		}
		cands = append(cands, cand{nv, nf})
		if a != nil {
			break
		}
	}
	if a == nil {
		t.Fatal("no bloom collision found in 4096 vars (geometry too large?)")
	}
	fa := sig(a)
	for n := 0; n < 4096; n++ {
		nv := NewVar(0)
		if !fa.Intersects(sig(nv)) {
			return a, b, nv
		}
	}
	t.Fatal("no disjoint var found")
	return nil, nil, nil
}

// visibleVictim registers a victim (slot 0), then a committer (slot 1), and
// runs body in the victim's transaction on a goroutine from its second attempt
// on; wait on the returned group for the transaction to end. The first
// attempt begins solo, before the committer registers, and its read fails
// validation on the committer's commit to a fresh Var: a solo read's abort
// names no Var, so the attribution report counts nothing of it but the abort
// and its wasted work. An InvalSTM retry after a validation abort is visible
// (System.solo), so body's first call runs an attempt a commit can doom.
func visibleVictim(t *testing.T, sys *System, body func(tx *Tx)) (victim, committer *Thread, wg *sync.WaitGroup) {
	t.Helper()
	victim = sys.MustRegister()
	begun, moved := make(chan struct{}), make(chan struct{})
	wg = new(sync.WaitGroup)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = victim.Atomically(func(tx *Tx) error {
			if tx.Attempt() == 1 {
				close(begun)
				<-moved
				tx.Load(NewVar(0)) // a solo read after a commit: AbortValidation
			}
			body(tx)
			return nil
		})
	}()
	<-begun
	committer = sys.MustRegister()
	if err := committer.Atomically(func(tx *Tx) error {
		tx.Store(NewVar(0), 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(moved)
	return victim, committer, wg
}

// doomVictim orchestrates one exact invalidation: the victim's visible
// attempt reads readVar, parks; the committer writes writeVar (dooming the
// victim if the filters collide — with a 1-element read set and
// AttrSampleEvery=1, every doom is exactness-checked); the victim's next read
// observes the doom and aborts. Returns after both transactions finished
// (victim's retry commits empty).
func doomVictim(t *testing.T, sys *System, readVar, writeVar *Var) {
	t.Helper()
	ready := make(chan struct{})
	committed := make(chan struct{})
	first := true
	victim, committer, wg := visibleVictim(t, sys, func(tx *Tx) {
		tx.Load(readVar)
		if first {
			first = false
			if tx.invisible {
				t.Error("the victim's retry is not visible")
			}
			close(ready)
			<-committed
			tx.Load(readVar) // observes the doom -> conflict abort
		}
	})
	defer victim.Close()
	defer committer.Close()
	<-ready
	if err := committer.Atomically(func(tx *Tx) error {
		tx.Store(writeVar, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(committed)
	wg.Wait()
}

// smallBloom is a deliberately tight geometry so single-element signatures
// collide within a few dozen allocated vars.
var smallBloom = bloom.Params{Bits: 64, Hashes: 2}

// attrConfig is the deterministic attribution setup the exactness tests use:
// inline invalidation (no server timing), every doom exactness-checked.
func attrConfig() Config {
	return Config{
		Algo:            InvalSTM,
		MaxThreads:      4,
		Attribution:     true,
		AttrSampleEvery: 1,
		Bloom:           smallBloom,
	}
}

// TestAttributionBloomFalsePositive forces a bloom collision between
// disjoint exact sets: the victim reads only readVar, the committer writes
// only writeVar, their signatures collide in the 64-bit geometry, so the
// invalidation dooms the victim — and the sampled exact check must classify
// the doom as a false positive.
func TestAttributionBloomFalsePositive(t *testing.T) {
	readVar, writeVar, _ := collidingVars(t, smallBloom)
	sys := MustNew(attrConfig())
	doomVictim(t, sys, readVar, writeVar)

	st := sys.Stats()
	if st.AbortReasons[AbortInvalidated] != 1 {
		t.Fatalf("AbortReasons[invalidated] = %d, want 1 (orchestration broke)", st.AbortReasons[AbortInvalidated])
	}
	rep := sys.ConflictReport()
	if !rep.Enabled {
		t.Fatal("report not enabled")
	}
	if rep.FP.Sampled != 1 || rep.FP.FalsePositive != 1 {
		t.Fatalf("FP = %+v, want exactly one check classified false-positive", rep.FP)
	}
	if rep.Matrix[1][0] != 1 {
		t.Fatalf("matrix[committer=1][victim=0] = %d, want 1 (matrix: %v)", rep.Matrix[1][0], rep.Matrix)
	}
	if rep.InvalidationAborts != 1 {
		t.Fatalf("InvalidationAborts = %d, want 1", rep.InvalidationAborts)
	}
	if len(rep.HotVars) != 0 {
		t.Fatalf("false positive must not feed the hot-var table, got %+v", rep.HotVars)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAttributionTrueConflict is the positive control: the victim reads the
// very Var the committer writes, so the exact check confirms the conflict,
// feeds the hot-var table, and the NewVarNamed label surfaces in the report.
func TestAttributionTrueConflict(t *testing.T) {
	hot := NewVarNamed(0, "hot-cell")
	sys := MustNew(attrConfig())
	doomVictim(t, sys, hot, hot)

	rep := sys.ConflictReport()
	if rep.FP.Sampled != 1 || rep.FP.FalsePositive != 0 {
		t.Fatalf("FP = %+v, want one check classified true conflict", rep.FP)
	}
	if len(rep.HotVars) != 1 || rep.HotVars[0].ID != hot.ID() {
		t.Fatalf("HotVars = %+v, want exactly the conflicting var", rep.HotVars)
	}
	if rep.HotVars[0].Name != "hot-cell" {
		t.Fatalf("hot var label = %q, want NewVarNamed's label", rep.HotVars[0].Name)
	}
	if rep.WastedNs["invalidated"] == 0 {
		t.Fatal("invalidation abort accounted no wasted time")
	}
	if rep.WastedOps["invalidated"] == 0 {
		t.Fatal("invalidation abort accounted no wasted ops")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAttributionPendingRead covers the read doomed before Tx.Load could
// log it. The victim's visible attempt reads a, whose signature collides
// with b's; the committer writes b, dooming the victim through the collision;
// the victim then reads b itself, and that read observes the doom before
// reaching the read log — only tx.pendingRead can carry b into the exact
// check. Since b
// IS in the committer's write set, the check must classify a true conflict
// (the logged read a alone would call it a false positive).
func TestAttributionPendingRead(t *testing.T) {
	a, b, _ := collidingVars(t, smallBloom)
	sys := MustNew(attrConfig())

	ready := make(chan struct{})
	committed := make(chan struct{})
	first := true
	victim, committer, wg := visibleVictim(t, sys, func(tx *Tx) {
		if first {
			first = false
			tx.Load(a) // publishes a's filter bits, logs a
			close(ready)
			<-committed
			tx.Load(b) // doomed before this read could be logged
		}
	})
	<-ready
	if err := committer.Atomically(func(tx *Tx) error {
		tx.Store(b, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(committed)
	wg.Wait()
	victim.Close()
	committer.Close()

	rep := sys.ConflictReport()
	if rep.FP.Sampled != 1 {
		t.Fatalf("FP = %+v, want exactly one exactness check", rep.FP)
	}
	if rep.FP.FalsePositive != 0 {
		t.Fatalf("FP = %+v: true conflict on the pending read misclassified", rep.FP)
	}
	if len(rep.HotVars) != 1 || rep.HotVars[0].ID != b.ID() {
		t.Fatalf("HotVars = %+v, want only the pending-read var %d", rep.HotVars, b.ID())
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAttributionMatrixMatchesTaxonomy is the churn test: several threads
// hammer a small shared array under every slot-using engine with attribution
// on, and at quiescence the full matrix sum must equal the taxonomy's
// AbortInvalidated counter exactly — the victim records exactly one cell per
// invalidation abort, racing committers notwithstanding. Run with -race.
func TestAttributionMatrixMatchesTaxonomy(t *testing.T) {
	for _, algo := range []Algo{InvalSTM, RInvalV1, RInvalV2, RInvalV3} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			sys := MustNew(Config{
				Algo:            algo,
				MaxThreads:      8,
				InvalServers:    2,
				Attribution:     true,
				AttrSampleEvery: 2,
			})
			vars := make([]*Var, 8)
			for i := range vars {
				vars[i] = NewVar(0)
			}
			const threads, iters = 6, 300
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := sys.MustRegister()
					defer th.Close()
					for i := 0; i < iters; i++ {
						_ = th.Atomically(func(tx *Tx) error {
							a := vars[(g+i)%len(vars)]
							b := vars[(g*3+i*7)%len(vars)]
							n := tx.Load(a).(int)
							tx.Store(b, n+1)
							return nil
						})
					}
				}(g)
			}
			wg.Wait()

			// Snapshot while live threads are gone but servers still run —
			// the counters are quiescent because no transaction is in flight.
			rep := sys.ConflictReport()
			st := sys.Stats()
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			if rep.InvalidationAborts != st.AbortReasons[AbortInvalidated] {
				t.Fatalf("matrix sum %d != AbortReasons[invalidated] %d",
					rep.InvalidationAborts, st.AbortReasons[AbortInvalidated])
			}
			// Row/column consistency: the committer-major snapshot and a
			// victim-major refold must agree with the total.
			var rows, cols uint64
			colSum := make([]uint64, rep.Slots)
			for _, row := range rep.Matrix {
				for v, n := range row {
					rows += n
					colSum[v] += n
				}
			}
			for _, n := range colSum {
				cols += n
			}
			if rows != rep.InvalidationAborts || cols != rep.InvalidationAborts {
				t.Fatalf("row sum %d / col sum %d != total %d", rows, cols, rep.InvalidationAborts)
			}
			if st.Aborts > 0 && rep.WastedNs["invalidated"]+rep.WastedNs["validation"]+rep.WastedNs["locked"] == 0 {
				t.Fatal("aborts happened but no wasted time was accounted")
			}
		})
	}
}

// TestAttributionOffIsInert pins the off-path contract: no attribution state
// is allocated, reports carry Enabled=false, and the killer mailbox stays
// nil through doom traffic.
func TestAttributionOffIsInert(t *testing.T) {
	sys := MustNew(Config{Algo: InvalSTM, MaxThreads: 4})
	if sys.attr != nil {
		t.Fatal("attribution state allocated with Attribution off")
	}
	v := NewVar(0)
	doomVictim(t, sys, v, v)
	rep := sys.ConflictReport()
	if rep.Enabled {
		t.Fatal("report enabled with Attribution off")
	}
	if rep.Aborts == 0 {
		t.Fatal("meta passthrough missing: report should still carry Stats totals")
	}
	for i := range sys.slots {
		if sys.slots[i].killer.Load() != nil {
			t.Fatalf("slot %d killer mailbox non-nil with Attribution off", i)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
