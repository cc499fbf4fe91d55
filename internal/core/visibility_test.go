package core

import (
	"fmt"
	"testing"
)

// Tests for invisible attempts (System.solo, DESIGN.md §3): with another
// Thread registered, an InvalSTM attempt first runs NOrec's attempt — no read
// signature, no active bit, no ALIVE word; each read re-checks the timestamp
// and a moved one revalidates the read log by cell identity; the commit
// locks with a CAS from the snapshot, extending it on failure, and still
// scans the other slots. Only the retry of a validation abort runs the
// paper's visible protocol and can be doomed.

// failFirstAttempt, called first in a transaction body, makes the first
// attempt fail validation, so an InvalSTM transaction's retry runs visible:
// the attempt reads a fresh Var, other commits a write to it, and the attempt
// reads it again. A visible attempt (RInval) is doomed by the same commit
// instead. Later attempts return at once. other must be registered and idle.
func failFirstAttempt(t *testing.T, tx *Tx, other *Thread) {
	t.Helper()
	if tx.Attempt() > 1 {
		return
	}
	v := NewVar(0)
	tx.Load(v)
	if err := other.Atomically(func(tx *Tx) error {
		tx.Store(v, 1)
		return nil
	}); err != nil {
		t.Error(err)
	}
	tx.Load(v)
	t.Error("a read of a Var overwritten since the attempt read it returned")
}

// publishes reports what th's slot publishes: the active bit, an ALIVE status
// word, and v's read-signature bits.
func publishes(th *Thread, v *Var) string {
	_, alive := th.slot.aliveWord()
	return fmt.Sprintf("active=%v alive=%v read bit=%v",
		th.sys.active.has(th.idx), alive, th.slot.readBF.MayContain(v.id))
}

// newInvalPair is an InvalSTM System with two Threads registered.
func newInvalPair(t *testing.T) (s *System, th, other *Thread) {
	t.Helper()
	s, err := New(Config{Algo: InvalSTM, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s, s.MustRegister(), s.MustRegister()
}

func closeAll(t *testing.T, s *System, ths ...*Thread) {
	t.Helper()
	for _, th := range ths {
		th.Close()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInvisibleExtendsPastUnrelatedCommit: an invisible attempt publishes
// nothing; a commit to a Var it did not read moves the timestamp, and its
// next read revalidates the log, extends the snapshot and goes on — no abort.
func TestInvisibleExtendsPastUnrelatedCommit(t *testing.T) {
	s, th, other := newInvalPair(t)
	a, b := NewVar(1), NewVar(2)
	if err := th.Atomically(func(tx *Tx) error {
		x := tx.Load(a).(int)
		if !tx.invisible || tx.solo {
			t.Fatalf("attempt %d: invisible=%v solo=%v, want an invisible attempt", tx.Attempt(), tx.invisible, tx.solo)
		}
		if got := publishes(th, a); got != "active=false alive=false read bit=false" {
			t.Errorf("invisible attempt publishes %s", got)
		}
		start := tx.start
		if err := other.Atomically(func(tx *Tx) error {
			tx.Store(b, 5)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if y := tx.Load(a).(int); y != x {
			t.Errorf("re-read of a = %d, want %d", y, x)
		}
		if tx.start == start {
			t.Error("snapshot not extended past the commit")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := th.Stats(); st.Aborts != 0 || st.Validations != 1 {
		t.Fatalf("Aborts=%d Validations=%d, want 0 and 1", st.Aborts, st.Validations)
	}
	closeAll(t, s, th, other)
}

// TestInvisibleAbortRetriesVisible: a commit overwrites a Var an invisible
// attempt read; its next read aborts with AbortValidation without returning
// the new cell. The retry is visible — active bit, read bit, ALIVE — so a
// second conflicting commit (itself an invisible attempt's) dooms it with
// AbortInvalidated, and the third attempt, invisible again, commits.
func TestInvisibleAbortRetriesVisible(t *testing.T) {
	s, th, other := newInvalPair(t)
	v := NewVar(0)
	write := func(val int) {
		t.Helper()
		if err := other.Atomically(func(tx *Tx) error {
			if !tx.invisible {
				t.Error("the committer's attempt is not invisible")
			}
			tx.Store(v, val)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []int
	if err := th.Atomically(func(tx *Tx) error {
		x := tx.Load(v).(int)
		seen = append(seen, x)
		switch tx.Attempt() {
		case 1:
			if !tx.invisible {
				t.Fatal("first attempt is not invisible")
			}
			write(7)
			y := tx.Load(v).(int)
			t.Errorf("read after an overwrite returned %d", y)
		case 2:
			if tx.invisible || tx.solo {
				t.Fatal("retry of a validation abort is not visible")
			}
			if got := publishes(th, v); got != "active=true alive=true read bit=true" {
				t.Errorf("visible retry publishes %s", got)
			}
			write(8)
			tx.Load(v)
			t.Error("read after a doom returned")
		case 3:
			if !tx.invisible {
				t.Error("retry of an invalidation abort is not invisible")
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[0 7 8]" {
		t.Fatalf("attempts saw %v, want [0 7 8]", seen)
	}
	st := th.Stats()
	if st.Aborts != 2 || st.AbortReasons[AbortValidation] != 1 || st.AbortReasons[AbortInvalidated] != 1 {
		t.Fatalf("Aborts=%d validation=%d invalidated=%d, want 2, 1, 1",
			st.Aborts, st.AbortReasons[AbortValidation], st.AbortReasons[AbortInvalidated])
	}
	if s.active.has(th.idx) {
		t.Fatal("active bit left set after the commit")
	}
	closeAll(t, s, th, other)
}

// TestInvisibleWriterCASFails: a commit lands between an invisible writer's
// last read and its commit, so the writer's CAS from its snapshot fails. The
// writer revalidates: the commit wrote a Var it did not read, so it extends
// and commits at once; or one it read, so it aborts with AbortValidation and
// its retry commits a write computed from the new value.
func TestInvisibleWriterCASFails(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap=%v", overlap), func(t *testing.T) {
			s, th, other := newInvalPair(t)
			a, b, c := NewVar(10), NewVar(0), NewVar(0)
			hit := c
			if overlap {
				hit = a
			}
			if err := th.Atomically(func(tx *Tx) error {
				x := tx.Load(a).(int)
				if tx.Attempt() == 1 {
					if err := other.Atomically(func(tx *Tx) error {
						tx.Store(hit, 20)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				tx.Store(b, x+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			st := th.Stats()
			want, aborts := 11, uint64(0)
			if overlap {
				want, aborts = 21, 1
			}
			if got := b.Peek().(int); got != want {
				t.Fatalf("b = %d, want %d", got, want)
			}
			if st.Aborts != aborts || st.AbortReasons[AbortValidation] != aborts || st.Validations != 1 {
				t.Fatalf("Aborts=%d validation=%d Validations=%d, want %d, %d, 1",
					st.Aborts, st.AbortReasons[AbortValidation], st.Validations, aborts, aborts)
			}
			closeAll(t, s, th, other)
		})
	}
}

// TestInvisibleCommitDoomsVisibleReader: an invisible attempt's commit scans
// the other slots, so a visible reader of a Var it writes is doomed — its
// next read aborts with AbortInvalidated — and its retry reads the new value.
func TestInvisibleCommitDoomsVisibleReader(t *testing.T) {
	s, reader, writer := newInvalPair(t)
	v, u := NewVar(0), NewVar(0)
	read, committed, done := make(chan struct{}), make(chan struct{}), make(chan []int)
	go func() {
		var seen []int
		first := true
		if err := reader.AtomicallyRO(func(tx *Tx) error {
			failFirstAttempt(t, tx, writer)
			seen = append(seen, tx.Load(v).(int))
			if first {
				first = false
				if tx.invisible {
					t.Error("retry of a validation abort is not visible")
				}
				close(read)
				<-committed
			}
			tx.Load(u) // doomed by now on the visible attempt
			return nil
		}); err != nil {
			t.Error(err)
		}
		done <- seen
	}()
	<-read
	if err := writer.Atomically(func(tx *Tx) error {
		if !tx.invisible {
			t.Error("the writer's attempt is not invisible")
		}
		tx.Store(v, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(committed)
	if seen := <-done; fmt.Sprint(seen) != "[0 1]" {
		t.Fatalf("visible reader saw %v, want [0 1]", seen)
	}
	if st := reader.Stats(); st.AbortReasons[AbortInvalidated] != 1 {
		t.Fatalf("visible reader AbortInvalidated = %d, want 1", st.AbortReasons[AbortInvalidated])
	}
	if st := writer.Stats(); st.Invalidations != 1 || st.Aborts != 0 {
		t.Fatalf("invisible writer Invalidations=%d Aborts=%d, want 1 and 0", st.Invalidations, st.Aborts)
	}
	closeAll(t, s, reader, writer)
}
