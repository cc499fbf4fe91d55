package core

import (
	"errors"
	"testing"
)

// Tests for spare cells (writeSet.reset, Tx.SpareBox): a retry after a
// conflict abort stores into the cells its aborted attempt buffered, which
// were never published; no other attempt ever gets a spare, so a published
// cell is never written again.

// TestRetryReusesAbortedCells: on every engine that can conflict, a retry's
// stores reuse the aborted attempt's cells and its commit publishes them. A
// later call's first attempt has no spare — the committed cells are not handed
// out again, so the committed Var's cell and value are unchanged after that
// call's aborted retry ends in a user abort — and neither a user abort, a
// panic nor an AtomicallyRO fallback leaves a spare to the next call.
func TestRetryReusesAbortedCells(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		if algo == Mutex {
			return // its attempts run under the global lock and never conflict
		}
		s := newSys(t, algo, nil)
		th, other := s.MustRegister(), s.MustRegister()
		defer other.Close()
		defer th.Close()
		a, b := NewVar(1), NewVar(2)
		cellOf := func(tx *Tx, v *Var) *Box {
			c, _ := tx.ws.lookup(v)
			return c
		}
		noSpares := func(tx *Tx) {
			t.Helper()
			if tx.Attempt() == 1 && len(tx.ws.spares) != 0 {
				t.Errorf("a call's first attempt holds %d spares", len(tx.ws.spares))
			}
		}
		// abortedOnce runs a call whose first attempt stores 10, 20 to a, b
		// and conflict-aborts; its retry stores 11, 21 and ends with end.
		abortedOnce := func(end func() error) (first, retry [2]*Box, err error) {
			err = th.Atomically(func(tx *Tx) error {
				noSpares(tx)
				tx.Store(a, 10+tx.Attempt()-1)
				tx.Store(b, 20+tx.Attempt()-1)
				if tx.Attempt() == 1 {
					first = [2]*Box{cellOf(tx, a), cellOf(tx, b)}
					failFirstAttempt(t, tx, other)
				}
				retry = [2]*Box{cellOf(tx, a), cellOf(tx, b)}
				return end()
			})
			return first, retry, err
		}

		first, retry, err := abortedOnce(func() error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if retry != first {
			t.Fatalf("retry stored into %v, want the aborted attempt's cells %v", retry, first)
		}
		if a.PeekBox() != first[0] || b.PeekBox() != first[1] || a.Peek() != 11 || b.Peek() != 21 {
			t.Fatalf("published %v=%v %v=%v, want the reused cells holding 11 and 21",
				a.PeekBox(), a.Peek(), b.PeekBox(), b.Peek())
		}

		published := func(what string) {
			t.Helper()
			if a.PeekBox() != first[0] || a.Peek() != 11 || b.PeekBox() != first[1] || b.Peek() != 21 {
				t.Fatalf("after %s: a=%v b=%v, want the committed cells with 11 and 21", what, a.Peek(), b.Peek())
			}
		}
		userAbort := errors.New("user abort")
		if _, _, err := abortedOnce(func() error { return userAbort }); err != userAbort {
			t.Fatalf("err = %v, want the user abort", err)
		}
		published("a later call's aborted retry")

		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the body's panic did not propagate")
				}
			}()
			_, _, _ = abortedOnce(func() error { panic("body panic") })
		}()
		published("a panic in a retry")
		if _, _, err := abortedOnce(func() error { return userAbort }); err != userAbort {
			t.Fatalf("err = %v, want the user abort", err)
		}
		published("a call after the panic")
	})
	t.Run("ro-fallback", roFallbackOffersNoSpare)
}

// roFallbackOffersNoSpare: the regular-path attempt of an AtomicallyRO call
// whose snapshot attempt fell back counts as a retry, but the write set it
// starts from is the previous call's, published: it must not offer those cells
// as spares — a Store, which panics there, asks for one before it checks.
func roFallbackOffersNoSpare(t *testing.T) {
	s := newSys(t, NOrec, func(c *Config) { c.Versions = 2 })
	th, other := s.MustRegister(), s.MustRegister()
	defer other.Close()
	defer th.Close()
	a, x := NewVar(1), NewVar(0)
	if err := th.Atomically(func(tx *Tx) error {
		tx.Store(a, 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	committed := a.PeekBox()
	fellBack := false
	if err := th.AtomicallyRO(func(tx *Tx) error {
		if tx.kind == kindSnapshot {
			for i := 0; i < 3; i++ { // lap x's two-version history
				if err := other.Atomically(func(tx *Tx) error {
					tx.Store(x, i+1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			tx.Load(x)
			t.Fatal("a lapped snapshot read returned")
		}
		fellBack = true
		if len(tx.ws.spares) != 0 {
			t.Errorf("the fallback attempt holds %d spares", len(tx.ws.spares))
		}
		func() {
			defer func() { _ = recover() }()
			tx.Store(a, 99)
		}()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !fellBack || th.Stats().ROFallbacks != 1 {
		t.Fatalf("fell back %v, ROFallbacks %d, want one fallback", fellBack, th.Stats().ROFallbacks)
	}
	if a.PeekBox() != committed || a.Peek() != 5 {
		t.Fatalf("committed a = %v, want 5 in its committed cell", a.Peek())
	}
}
