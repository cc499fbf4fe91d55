package core

import (
	"testing"

	"github.com/ssrg-vt/rinval/internal/bloom"
)

func TestWriteSetLinearThenMapPath(t *testing.T) {
	ws := newWriteSet(bloom.DefaultParams)
	vars := make([]*Var, wsetMapThreshold*2)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	// Linear-path inserts and replacement.
	for i := 0; i < wsetMapThreshold; i++ {
		ws.put(vars[i], newAnyCell(i))
	}
	if ws.idx != nil {
		t.Fatal("map built too early")
	}
	ws.put(vars[0], newAnyCell(999))
	if b, ok := ws.lookup(vars[0]); !ok || anyOf(b).v.(int) != 999 {
		t.Fatal("linear replacement broken")
	}
	if ws.len() != wsetMapThreshold {
		t.Fatalf("len %d", ws.len())
	}
	// Cross the threshold: map path activates.
	for i := wsetMapThreshold; i < len(vars); i++ {
		ws.put(vars[i], newAnyCell(i))
	}
	if ws.idx == nil {
		t.Fatal("map not built past threshold")
	}
	ws.put(vars[5], newAnyCell(555))
	if b, ok := ws.lookup(vars[5]); !ok || anyOf(b).v.(int) != 555 {
		t.Fatal("map replacement broken")
	}
	if _, ok := ws.lookup(NewVar(0)); ok {
		t.Fatal("lookup found absent var")
	}
	// Reset clears everything including the map and the filter.
	ws.reset(false)
	if ws.len() != 0 || ws.idx != nil || !ws.bf.Empty() {
		t.Fatal("reset incomplete")
	}
	if _, ok := ws.lookup(vars[0]); ok {
		t.Fatal("lookup after reset found entry")
	}
}

// TestWriteSetResetSkipsAnEmptySet: reset of a write set with no entries
// returns before the clears, and that is sound — whatever ran before, a set
// with no entries has no index and an empty signature.
func TestWriteSetResetSkipsAnEmptySet(t *testing.T) {
	s := MustNew(Config{Algo: InvalSTM, MaxThreads: 2})
	defer s.Close()
	th := s.MustRegister()
	defer th.Close()
	vars := make([]*Var, wsetMapThreshold+2)
	for i := range vars {
		vars[i] = NewVar(i)
	}
	txs := []func(tx *Tx) error{
		func(tx *Tx) error { // past the threshold: index built, filter populated
			for i, v := range vars {
				tx.Store(v, i+1)
			}
			return nil
		},
		func(tx *Tx) error { _ = tx.Load(vars[0]); return nil }, // begin clears the writer's set
		func(tx *Tx) error { _ = tx.Load(vars[1]); return nil }, // begin finds it empty
	}
	for i, fn := range txs {
		if err := th.Atomically(func(tx *Tx) error {
			if tx.ws.len() != 0 || tx.ws.idx != nil || !tx.ws.bf.Empty() {
				t.Errorf("tx %d began with %d entries, idx=%v, empty filter=%v", i, tx.ws.len(), tx.ws.idx != nil, tx.ws.bf.Empty())
			}
			if _, ok := tx.ws.lookup(vars[0]); ok {
				t.Errorf("tx %d began with a buffered write", i)
			}
			return fn(tx)
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteSetWriteBackOrder(t *testing.T) {
	ws := newWriteSet(bloom.DefaultParams)
	a, b := NewVar(0), NewVar(0)
	ws.put(a, newAnyCell(1))
	ws.put(b, newAnyCell(2))
	ws.put(a, newAnyCell(3)) // replacement keeps program order slot
	ws.writeBack()
	if a.Peek().(int) != 3 || b.Peek().(int) != 2 {
		t.Fatalf("writeBack wrong: a=%v b=%v", a.Peek(), b.Peek())
	}
}

func TestReadSetReuse(t *testing.T) {
	var rs readSet
	v := NewVar(1)
	bx := v.loadBox()
	for i := 0; i < 100; i++ {
		rs.add(v, bx)
	}
	if rs.len() != 100 {
		t.Fatalf("len %d", rs.len())
	}
	rs.reset()
	if rs.len() != 0 {
		t.Fatal("reset failed")
	}
	rs.add(v, bx)
	if rs.len() != 1 || rs.entries[0].v != v {
		t.Fatal("reuse after reset broken")
	}
}

func TestStatsAddAndAbortRate(t *testing.T) {
	a := Stats{Commits: 10, Aborts: 5, Reads: 100, Writes: 50,
		Validations: 3, ValidationOps: 30, Invalidations: 2, ReadOnly: 4}
	b := a
	a.Add(b)
	if a.Commits != 20 || a.Aborts != 10 || a.Reads != 200 || a.Writes != 100 ||
		a.Validations != 6 || a.Invalidations != 4 || a.ReadOnly != 8 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if got := a.AbortRate(); got != float64(10)/30 {
		t.Fatalf("AbortRate %v", got)
	}
	var empty Stats
	if empty.AbortRate() != 0 {
		t.Fatal("empty AbortRate")
	}
}

func TestStatusWordPacking(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 77, 1 << 40} {
		for _, st := range []uint64{txInactive, txAlive, txInvalid} {
			w := statusWord(epoch, st)
			if wordStatus(w) != st {
				t.Fatalf("status lost: epoch=%d st=%d", epoch, st)
			}
			if w>>epochShift != epoch {
				t.Fatalf("epoch lost: epoch=%d st=%d", epoch, st)
			}
		}
	}
}

func TestSlotTryInvalidateEpochGuard(t *testing.T) {
	var s slot
	w := statusWord(5, txAlive)
	s.status.Store(w)
	if !s.tryInvalidate(w) {
		t.Fatal("invalidate on matching word failed")
	}
	if got, alive := s.aliveWord(); alive || wordStatus(got) != txInvalid {
		t.Fatal("status not invalid after doom")
	}
	// A stale word (old epoch) must not doom the new incarnation.
	fresh := statusWord(6, txAlive)
	s.status.Store(fresh)
	if s.tryInvalidate(w) {
		t.Fatal("stale-epoch doom succeeded")
	}
	if _, alive := s.aliveWord(); !alive {
		t.Fatal("new incarnation was doomed by stale word")
	}
}

func TestVarBoxIdentityChangesOnStore(t *testing.T) {
	v := NewVar(1)
	b1 := v.loadBox()
	v.Set(1) // same value, new version
	b2 := v.loadBox()
	if b1 == b2 {
		t.Fatal("Set did not install a fresh version box")
	}
	if anyOf(b1).v.(int) != anyOf(b2).v.(int) {
		t.Fatal("value changed unexpectedly")
	}
}
