package stm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// Tests for the typed cell (cell[T]: core's header first, then the value, one
// allocation per published version).

type cellNode struct{ key int }

type cellTriple struct{ a, b, c uint64 } // 24 bytes

// cellRoundTrip drives one Var[T] through every way a value gets into and out
// of a cell — NewVar, Set, Store, Modify in; Peek, Load out; read-after-write
// and overwrite inside one transaction — with at least three values (repeats
// allowed), and then reads two epochs back through AtomicallyRO's snapshot
// path. The header must sit at offset 0, which is what cellOf's cast relies
// on.
func cellRoundTrip[T any](t *testing.T, name string, vals ...T) {
	t.Run(name, func(t *testing.T) {
		if off := unsafe.Offsetof(cell[T]{}.Box); off != 0 {
			t.Fatalf("header of cell[%s] at offset %d, want 0", name, off)
		}
		same := func(what string, got, want T) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s = %#v, want %#v", what, got, want)
			}
		}
		a, b, c := vals[0], vals[1], vals[2]
		for _, algo := range Algos {
			versions := 2
			if algo == TL2 {
				versions = 0 // no epochs to stamp: AtomicallyRO is the regular path
			}
			s := MustNew(Config{Algo: algo, MaxThreads: 2, InvalServers: 1, Versions: versions})
			th := s.MustRegister()
			v := NewVar(a)
			same("Peek after NewVar", v.Peek(), a)
			v.Set(b)
			same("Peek after Set", v.Peek(), b)
			if err := th.Atomically(func(tx *Tx) error {
				same("Load of the committed cell", v.Load(tx), b)
				v.Store(tx, c)
				same("read-after-write", v.Load(tx), c)
				v.Store(tx, a)
				same("read after overwrite", v.Load(tx), a)
				v.Modify(tx, func(T) T { return c })
				same("read after Modify", v.Load(tx), c)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			same(algo.String()+": Peek after commit", v.Peek(), c)

			// Two more epochs, each observed by a snapshot reader before the
			// next one lands: the version ring hands back the typed cell.
			for _, next := range []T{a, b} {
				if err := th.Atomically(func(tx *Tx) error { v.Store(tx, next); return nil }); err != nil {
					t.Fatal(err)
				}
				if err := th.AtomicallyRO(func(tx *Tx) error {
					same(algo.String()+": snapshot Load", v.Load(tx), next)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if st := th.Stats(); versions > 0 && (st.ROCommits != 2 || st.ROFallbacks != 0) {
				t.Errorf("%s: ROCommits=%d ROFallbacks=%d, want 2 snapshot commits", algo, st.ROCommits, st.ROFallbacks)
			}
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestCellRoundTrip(t *testing.T) {
	n1, n2 := &cellNode{1}, &cellNode{2}
	boom := errors.New("boom")
	cellRoundTrip(t, "int", 7, -1, 1<<40)
	cellRoundTrip(t, "bool", true, false, true)
	cellRoundTrip(t, "string", "", "a", "a longer string than fits a word")
	cellRoundTrip(t, "bytes", []byte("x"), nil, []byte{})
	cellRoundTrip(t, "struct24", cellTriple{1, 2, 3}, cellTriple{}, cellTriple{^uint64(0), 0, 9})
	cellRoundTrip(t, "empty", struct{}{}, struct{}{}, struct{}{})
	cellRoundTrip(t, "pointer", n1, nil, n2)
	cellRoundTrip[error](t, "error", boom, nil, fmt.Errorf("wrapped: %w", boom))
	cellRoundTrip[any](t, "any", 1, nil, "two")
}

// TestSnapshotReadsTheCellOfItsEpoch: a snapshot reader that began before a
// commit keeps resolving to the older typed cell from the version ring while
// the head already holds the newer one. (Versions is 4, not 2: a reader is
// refused the oldest entry of a full ring.)
func TestSnapshotReadsTheCellOfItsEpoch(t *testing.T) {
	s := MustNew(Config{Algo: RInvalV1, MaxThreads: 2, Versions: 4})
	defer s.Close()
	reader, writer := s.MustRegister(), s.MustRegister()
	defer reader.Close()
	defer writer.Close()
	v, w := NewVar("old"), NewVar(cellTriple{1, 1, 1})
	if err := reader.AtomicallyRO(func(tx *Tx) error {
		if got := v.Load(tx); got != "old" {
			t.Errorf("before the commit: %q", got)
		}
		if v.Peek() == "old" { // once, should the reader ever re-run
			if err := writer.Atomically(func(wtx *Tx) error {
				v.Store(wtx, "new")
				w.Store(wtx, cellTriple{2, 2, 2})
				return nil
			}); err != nil {
				t.Error(err)
			}
		}
		if got, got2 := v.Load(tx), w.Load(tx); got != "old" || got2 != (cellTriple{1, 1, 1}) {
			t.Errorf("snapshot moved with the head: %q %v", got, got2)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := reader.Stats(); st.ROCommits != 1 || st.ROFallbacks != 0 {
		t.Fatalf("ROCommits=%d ROFallbacks=%d, want one snapshot commit", st.ROCommits, st.ROFallbacks)
	}
	if v.Peek() != "new" || w.Peek() != (cellTriple{2, 2, 2}) {
		t.Fatalf("head: %q %v", v.Peek(), w.Peek())
	}
}

// TestVarAllocations pins what a Var costs: NewVar allocates the Var and its
// first cell; InitVar into a caller's struct allocates only the cell. InitVar
// on a Var already in use panics and leaves it as it was.
func TestVarAllocations(t *testing.T) {
	const runs = 100
	var sink *Var[int]
	if got := testing.AllocsPerRun(runs, func() { sink = NewVar(1) }); got != 2 {
		t.Errorf("NewVar allocates %v, want 2 (the Var and its cell)", got)
	}
	type pair struct{ a, b Var[int] }
	pairs := make([]pair, runs+1) // AllocsPerRun calls f once more to warm up
	i := 0
	if got := testing.AllocsPerRun(runs, func() { InitVar(&pairs[i].b, i); i++ }); got != 1 {
		t.Errorf("InitVar into a struct allocates %v, want 1 (the cell)", got)
	}
	if pairs[runs].b.Peek() != runs || pairs[runs].a.ID() != 0 {
		t.Errorf("InitVar wrote %d and id %d beside it", pairs[runs].b.Peek(), pairs[runs].a.ID())
	}

	s := MustNew(Config{Algo: NOrec})
	defer s.Close()
	th := s.MustRegister()
	defer th.Close()
	if err := th.Atomically(func(tx *Tx) error { sink.Store(tx, 7); pairs[0].b.Store(tx, 8); return nil }); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*Var[int]{"NewVar": sink, "InitVar": &pairs[0].b} {
		id := v.ID()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InitVar on a Var made by %s and written since returned", name)
				}
			}()
			InitVar(v, 9)
		}()
		if v.ID() != id || v.Peek() == 9 {
			t.Errorf("%s Var after the refused InitVar: id %d (was %d), value %d", name, v.ID(), id, v.Peek())
		}
	}
}

// TestTxAllocations pins what a transaction allocates through the public API,
// per engine: the Tx wrapper, and one cell per Store — also when the Store
// overwrites a Var the transaction already wrote — except that a retry stores
// into the cells of the attempt a conflict aborted: a transfer aborted once
// costs what one that commits at once does, on every engine that can conflict.
// TL2's commit additionally sorts its write set into lock order (a slice, and
// sort.Slice's two).
func TestTxAllocations(t *testing.T) {
	for _, algo := range Algos {
		t.Run(algo.String(), func(t *testing.T) {
			s := MustNew(Config{Algo: algo, MaxThreads: 2, InvalServers: 1})
			defer s.Close()
			th := s.MustRegister()
			defer th.Close()
			a, b := NewVar(1000), NewVar(2000)
			ro := func(tx *Tx) error {
				_ = a.Load(tx) + b.Load(tx)
				return nil
			}
			transfer := func(tx *Tx) error {
				a.Store(tx, a.Load(tx)-1)
				b.Store(tx, b.Load(tx)+1)
				return nil
			}
			overwrite := func(tx *Tx) error {
				if err := transfer(tx); err != nil {
					return err
				}
				a.Store(tx, a.Load(tx)+1)
				return nil
			}
			perTx := func(fn func(*Tx) error) float64 {
				return testing.AllocsPerRun(200, func() {
					if err := th.Atomically(fn); err != nil {
						t.Fatal(err)
					}
				})
			}
			commit := 0.0
			if algo == TL2 {
				commit = 3
			}
			if got := perTx(ro); got != 1 {
				t.Errorf("read-only tx allocates %v, want 1 (the wrapper)", got)
			}
			if got := perTx(transfer); got != 3+commit {
				t.Errorf("2-load 2-store tx allocates %v, want %v", got, 3+commit)
			}
			if got := perTx(overwrite); got != 4+commit {
				t.Errorf("2-load 2-store tx with one overwrite allocates %v, want %v", got, 4+commit)
			}
			if algo == Mutex {
				return // its attempts never conflict
			}
			other := s.MustRegister()
			defer other.Close()
			c := NewVar(0)
			bump := func() {
				if err := other.Atomically(func(tx *Tx) error {
					c.Store(tx, c.Load(tx)+1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			abortedOnce := func(tx *Tx) error {
				if err := transfer(tx); err != nil {
					return err
				}
				if tx.Attempt() == 1 {
					c.Load(tx)
					bump()
					c.Load(tx) // a conflict: the attempt aborts here
					t.Error("a read of a Var overwritten since the attempt read it returned")
				}
				return nil
			}
			bumps := testing.AllocsPerRun(200, bump)
			if got := perTx(abortedOnce) - bumps; got != 3+commit {
				t.Errorf("2-load 2-store tx aborted once allocates %v besides the conflicting commit's %v, want %v",
					got, bumps, 3+commit)
			}
		})
	}
}

// TestRetryReusesAbortedCells: a typed retry stores into the cells its
// conflict-aborted attempt buffered (see TestTxAllocations for the count), and
// the values it publishes are the retry's. A committed cell is never handed
// out again: after a later call that aborts once and then aborts itself, the
// committed Vars keep their cells and values.
func TestRetryReusesAbortedCells(t *testing.T) {
	for _, algo := range Algos {
		if algo == Mutex {
			continue // its attempts never conflict
		}
		t.Run(algo.String(), func(t *testing.T) {
			s := MustNew(Config{Algo: algo, MaxThreads: 2, InvalServers: 1})
			defer s.Close()
			th, other := s.MustRegister(), s.MustRegister()
			defer th.Close()
			defer other.Close()
			a, b, c := NewVar("a0"), NewVar(cellTriple{}), NewVar(0)
			abortedOnce := func(end error) error {
				return th.Atomically(func(tx *Tx) error {
					n := uint64(tx.Attempt())
					a.Store(tx, fmt.Sprintf("a%d", n))
					b.Store(tx, cellTriple{n, n, n})
					if n == 1 {
						c.Load(tx)
						if err := other.Atomically(func(tx *Tx) error {
							c.Store(tx, c.Load(tx)+1)
							return nil
						}); err != nil {
							t.Fatal(err)
						}
						c.Load(tx)
						t.Error("a read of a Var overwritten since the attempt read it returned")
					}
					if a.Load(tx) != fmt.Sprintf("a%d", n) || b.Load(tx) != (cellTriple{n, n, n}) {
						t.Errorf("attempt %d reads back %q %v", n, a.Load(tx), b.Load(tx))
					}
					return end
				})
			}
			if err := abortedOnce(nil); err != nil {
				t.Fatal(err)
			}
			if a.Peek() != "a2" || b.Peek() != (cellTriple{2, 2, 2}) {
				t.Fatalf("published %q %v, want the retry's a2 {2 2 2}", a.Peek(), b.Peek())
			}
			ca, cb := a.v.PeekBox(), b.v.PeekBox()
			userAbort := errors.New("user abort")
			if err := abortedOnce(userAbort); err != userAbort {
				t.Fatalf("err = %v, want the user abort", err)
			}
			if a.v.PeekBox() != ca || b.v.PeekBox() != cb || a.Peek() != "a2" || b.Peek() != (cellTriple{2, 2, 2}) {
				t.Fatalf("after a later call's aborted retry: %q %v, want the committed cells with a2 {2 2 2}", a.Peek(), b.Peek())
			}
		})
	}
}
