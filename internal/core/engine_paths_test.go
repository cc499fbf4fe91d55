package core

import (
	"strings"
	"sync"
	"testing"
)

// TestNOrecRevalidationExtendsSnapshot forces the incremental-validation
// path deterministically: a reader loads x, then another thread commits a
// write to an unrelated var (moving the global timestamp), then the reader
// loads y. The reader's second load must revalidate (x unchanged => snapshot
// extends) and the transaction commits on the first attempt.
func TestNOrecRevalidationExtendsSnapshot(t *testing.T) {
	s := newSys(t, NOrec, nil)
	x, y, unrelated := NewVar(1), NewVar(2), NewVar(0)

	reader := s.MustRegister()
	defer reader.Close()
	writer := s.MustRegister()
	defer writer.Close()

	readerAtStep := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		<-readerAtStep
		_ = writer.Atomically(func(tx *Tx) error {
			tx.Store(unrelated, 99)
			return nil
		})
		close(writerDone)
	}()

	attempts := 0
	var got int
	if err := reader.Atomically(func(tx *Tx) error {
		attempts = tx.Attempt()
		_ = tx.Load(x)
		if attempts == 1 {
			close(readerAtStep)
			<-writerDone // a commit definitely lands between the two loads
		}
		got = tx.Load(y).(int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("snapshot extension failed: %d attempts", attempts)
	}
	if got != 2 {
		t.Fatalf("y = %d", got)
	}
	st := s.Stats()
	if st.Validations == 0 {
		t.Fatal("revalidation path not exercised")
	}
}

// TestNOrecRevalidationConflictAborts: same shape, but the interleaved
// commit writes x itself — the reader's revalidation must fail and the
// transaction must retry.
func TestNOrecRevalidationConflictAborts(t *testing.T) {
	s := newSys(t, NOrec, nil)
	x, y := NewVar(1), NewVar(2)

	reader := s.MustRegister()
	defer reader.Close()
	writer := s.MustRegister()
	defer writer.Close()

	readerAtStep := make(chan struct{})
	writerDone := make(chan struct{})
	var once sync.Once
	go func() {
		<-readerAtStep
		_ = writer.Atomically(func(tx *Tx) error {
			tx.Store(x, 111)
			return nil
		})
		close(writerDone)
	}()

	maxAttempt := 0
	var sawNew bool
	if err := reader.Atomically(func(tx *Tx) error {
		if tx.Attempt() > maxAttempt {
			maxAttempt = tx.Attempt()
		}
		xv := tx.Load(x).(int)
		once.Do(func() {
			close(readerAtStep)
			<-writerDone
		})
		_ = tx.Load(y)
		sawNew = xv == 111
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if maxAttempt < 2 {
		t.Fatalf("conflicting commit did not force a retry (attempts=%d)", maxAttempt)
	}
	if !sawNew {
		t.Fatal("retry did not observe the committed value")
	}
	if st := s.Stats(); st.Aborts == 0 {
		t.Fatal("no abort recorded")
	}
}

// TestNOrecCommitCASRetry: a commit whose snapshot is stale must revalidate
// and still commit when no conflict exists.
func TestNOrecCommitCASRetry(t *testing.T) {
	s := newSys(t, NOrec, nil)
	x, unrelated := NewVar(1), NewVar(0)
	a := s.MustRegister()
	defer a.Close()
	bth := s.MustRegister()
	defer bth.Close()

	step := make(chan struct{})
	done := make(chan struct{})
	go func() {
		<-step
		_ = bth.Atomically(func(tx *Tx) error {
			tx.Store(unrelated, 5)
			return nil
		})
		close(done)
	}()
	var once sync.Once
	if err := a.Atomically(func(tx *Tx) error {
		tx.Store(x, tx.Load(x).(int)+1)
		once.Do(func() {
			close(step)
			<-done // timestamp moves between body and commit
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if x.Peek().(int) != 2 {
		t.Fatalf("x = %v", x.Peek())
	}
}

// TestTL2ReadLockedVarAborts: a reader encountering a location whose
// verlock is held past the spin budget must abort rather than block.
func TestTL2ReadLockedVarAborts(t *testing.T) {
	s := newSys(t, TL2, nil)
	v := NewVar(7)
	th := s.MustRegister()
	defer th.Close()

	// Jam the lock bit from outside (simulating a stuck owner).
	w := v.verlock.Load()
	v.verlock.Store(w | 1)
	attempts := 0
	errDone := make(chan error, 1)
	go func() {
		errDone <- th.Atomically(func(tx *Tx) error {
			attempts = tx.Attempt()
			if attempts >= 3 {
				return nil // give up reading the jammed var
			}
			_ = tx.Load(v)
			return nil
		})
	}()
	if err := <-errDone; err != nil {
		t.Fatal(err)
	}
	if attempts < 3 {
		t.Fatalf("locked read did not abort (attempts=%d)", attempts)
	}
	v.verlock.Store(w) // unjam for cleanup
}

// TestTL2ReadTooNewAborts: a read of a version newer than the snapshot must
// abort (no snapshot extension in classic TL2).
func TestTL2ReadTooNewAborts(t *testing.T) {
	s := newSys(t, TL2, nil)
	v := NewVar(7)
	th := s.MustRegister()
	defer th.Close()

	bumped := false
	if err := th.Atomically(func(tx *Tx) error {
		if tx.Attempt() == 1 {
			// Simulate a concurrent commit: advance the global clock and
			// stamp the var with the new version, which postdates this
			// transaction's snapshot (but not the retry's).
			ver := s.streams[0].ts.Add(5)
			v.verlock.Store(ver << 1)
			bumped = true
			_ = tx.Load(v) // must conflict-abort
			t.Error("read of too-new version succeeded")
			return nil
		}
		_ = tx.Load(v) // retry with a fresh snapshot succeeds
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bumped {
		t.Fatal("test did not exercise the path")
	}
}

// TestTxStringCountsOps: String reports the attempt's Load and Store calls on
// every engine, including the invalidation engines, which keep no read log.
func TestTxStringCountsOps(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		th := newSys(t, algo, nil).MustRegister()
		defer th.Close()
		vs := []*Var{NewVar(0), NewVar(1), NewVar(2)}
		if err := th.Atomically(func(tx *Tx) error {
			for _, v := range vs {
				_ = tx.Load(v)
			}
			tx.Store(vs[0], 3)
			if s := tx.String(); !strings.Contains(s, " reads=3 writes=1}") {
				t.Errorf("String() = %q, want reads=3 writes=1", s)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTxStringAndAlgoString(t *testing.T) {
	s := newSys(t, NOrec, nil)
	th := s.MustRegister()
	defer th.Close()
	v := NewVar(0)
	_ = th.Atomically(func(tx *Tx) error {
		_ = tx.Load(v)
		tx.Store(v, 1)
		if tx.String() == "" {
			t.Error("empty Tx string")
		}
		return nil
	})
}
