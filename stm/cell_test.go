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

// TestTxAllocations pins what a transaction allocates through the public API,
// per engine: the Tx wrapper, and one cell per Store — also when the Store
// overwrites a Var the transaction already wrote. TL2's commit additionally
// sorts its write set into lock order (a slice, and sort.Slice's two).
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
		})
	}
}
