package rbtree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/ssrg-vt/rinval/stm"
)

func newSys(t *testing.T, algo stm.Algo) *stm.System {
	t.Helper()
	s, err := stm.New(stm.Config{Algo: algo, MaxThreads: 16, InvalServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// seed populates a tree quiescently through single-threaded transactions.
func seed(t *testing.T, s *stm.System, tree *Tree, keys []int) {
	t.Helper()
	th := s.MustRegister()
	defer th.Close()
	for _, k := range keys {
		k := k
		if err := th.Atomically(func(tx *stm.Tx) error {
			tree.Insert(tx, k, k*10)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	s := newSys(t, stm.NOrec)
	tree := New()
	th := s.MustRegister()
	defer th.Close()
	if err := th.Atomically(func(tx *stm.Tx) error {
		if tree.Contains(tx, 1) {
			t.Error("empty tree contains 1")
		}
		if tree.Delete(tx, 1) {
			t.Error("deleted from empty tree")
		}
		if tree.Size(tx) != 0 {
			t.Error("empty size != 0")
		}
		if _, ok := tree.Get(tx, 5); ok {
			t.Error("Get on empty")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertLookupDelete(t *testing.T) {
	s := newSys(t, stm.NOrec)
	tree := New()
	th := s.MustRegister()
	defer th.Close()
	keys := []int{50, 20, 80, 10, 30, 70, 90, 25, 35, 5, 1, 99, 60, 65}
	for _, k := range keys {
		k := k
		if err := th.Atomically(func(tx *stm.Tx) error {
			if !tree.Insert(tx, k, k*2) {
				t.Errorf("Insert(%d) said duplicate", k)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", k, err)
		}
	}
	_ = th.Atomically(func(tx *stm.Tx) error {
		for _, k := range keys {
			v, ok := tree.Get(tx, k)
			if !ok || v != k*2 {
				t.Errorf("Get(%d) = %d,%v", k, v, ok)
			}
		}
		if tree.Size(tx) != len(keys) {
			t.Errorf("size %d", tree.Size(tx))
		}
		return nil
	})
	// Duplicate insert updates value.
	_ = th.Atomically(func(tx *stm.Tx) error {
		if tree.Insert(tx, 50, 555) {
			t.Error("duplicate insert returned true")
		}
		if v, _ := tree.Get(tx, 50); v != 555 {
			t.Errorf("update lost: %d", v)
		}
		return nil
	})
	// Delete in a scrambled order, checking invariants at each step.
	order := append([]int(nil), keys...)
	rand.New(rand.NewSource(7)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, k := range order {
		k := k
		_ = th.Atomically(func(tx *stm.Tx) error {
			if !tree.Delete(tx, k) {
				t.Errorf("Delete(%d) missed", k)
			}
			if tree.Delete(tx, k) {
				t.Errorf("double Delete(%d) succeeded", k)
			}
			return nil
		})
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d (#%d): %v", k, i, err)
		}
	}
	if tree.SizeQuiescent() != 0 {
		t.Fatalf("size %d after deleting all", tree.SizeQuiescent())
	}
}

func TestGetQuiescent(t *testing.T) {
	s := newSys(t, stm.NOrec)
	tree := New()
	seed(t, s, tree, []int{5, 2, 8, 1, 9})
	for _, k := range []int{5, 2, 8, 1, 9} {
		if v, ok := tree.GetQuiescent(k); !ok || v != k*10 {
			t.Fatalf("GetQuiescent(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tree.GetQuiescent(77); ok {
		t.Fatal("found phantom key")
	}
	empty := New()
	if _, ok := empty.GetQuiescent(1); ok {
		t.Fatal("found key in empty tree")
	}
}

func TestKeysSorted(t *testing.T) {
	s := newSys(t, stm.NOrec)
	tree := New()
	keys := rand.New(rand.NewSource(3)).Perm(200)
	seed(t, s, tree, keys)
	got := tree.Keys()
	if len(got) != len(keys) {
		t.Fatalf("got %d keys want %d", len(got), len(keys))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("Keys not sorted")
	}
}

// TestQuickMatchesModel drives random op sequences against both the tree
// and a map model, comparing results and checking RB invariants.
func TestQuickMatchesModel(t *testing.T) {
	s := newSys(t, stm.NOrec)
	th := s.MustRegister()
	defer th.Close()
	type op struct {
		Key   uint8
		Kind  uint8 // 0 insert, 1 delete, 2 contains
		Value int16
	}
	f := func(ops []op) bool {
		tree := New()
		model := map[int]int{}
		for _, o := range ops {
			k := int(o.Key) % 64
			var ok bool
			err := th.Atomically(func(tx *stm.Tx) error {
				switch o.Kind % 3 {
				case 0:
					ok = tree.Insert(tx, k, int(o.Value))
				case 1:
					ok = tree.Delete(tx, k)
				case 2:
					ok = tree.Contains(tx, k)
				}
				return nil
			})
			if err != nil {
				return false
			}
			switch o.Kind % 3 {
			case 0:
				_, existed := model[k]
				model[k] = int(o.Value)
				if ok == existed {
					return false
				}
			case 1:
				_, existed := model[k]
				delete(model, k)
				if ok != existed {
					return false
				}
			case 2:
				_, existed := model[k]
				if ok != existed {
					return false
				}
			}
			if tree.CheckInvariants() != nil {
				return false
			}
		}
		if tree.SizeQuiescent() != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedWorkload is the paper's micro-benchmark shape: a
// pre-populated tree under a lookup/insert/delete mix, across every engine,
// with full invariant validation afterwards.
func TestConcurrentMixedWorkload(t *testing.T) {
	for _, algo := range stm.Algos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo)
			tree := New()
			const keyRange = 256
			initial := rand.New(rand.NewSource(11)).Perm(keyRange)[:keyRange/2]
			seed(t, s, tree, initial)

			const workers, opsEach = 6, 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < opsEach; i++ {
						k := rng.Intn(keyRange)
						switch rng.Intn(4) {
						case 0:
							_ = th.Atomically(func(tx *stm.Tx) error {
								tree.Insert(tx, k, k)
								return nil
							})
						case 1:
							_ = th.Atomically(func(tx *stm.Tx) error {
								tree.Delete(tx, k)
								return nil
							})
						default:
							_ = th.Atomically(func(tx *stm.Tx) error {
								tree.Contains(tx, k)
								return nil
							})
						}
					}
				}()
			}
			wg.Wait()
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("invariants after concurrent run: %v", err)
			}
			keys := tree.Keys()
			if !sort.IntsAreSorted(keys) {
				t.Fatal("keys unsorted after concurrent run")
			}
		})
	}
}

// TestConcurrentSizeConsistency: inserts and deletes of disjoint key sets by
// concurrent threads must leave exactly the surviving keys.
func TestConcurrentSizeConsistency(t *testing.T) {
	for _, algo := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV2} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s := newSys(t, algo)
			tree := New()
			const perWorker = 100
			const workers = 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					base := w * perWorker
					for i := 0; i < perWorker; i++ {
						k := base + i
						_ = th.Atomically(func(tx *stm.Tx) error {
							tree.Insert(tx, k, k)
							return nil
						})
					}
					// Delete the odd keys we inserted.
					for i := 1; i < perWorker; i += 2 {
						k := base + i
						_ = th.Atomically(func(tx *stm.Tx) error {
							if !tree.Delete(tx, k) {
								t.Errorf("lost key %d", k)
							}
							return nil
						})
					}
				}()
			}
			wg.Wait()
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			want := workers * perWorker / 2
			if got := tree.SizeQuiescent(); got != want {
				t.Fatalf("size %d want %d", got, want)
			}
			for _, k := range tree.Keys() {
				if k%2 != 0 {
					t.Fatalf("odd key %d survived", k)
				}
			}
		})
	}
}

// TestNewNodeAllocations pins a node's cost: the node, which holds its six
// Vars by value, and one first cell per Var.
func TestNewNodeAllocations(t *testing.T) {
	parent := newNode(0, 0, nil)
	var sink *node
	if got := testing.AllocsPerRun(100, func() { sink = newNode(1, 10, parent) }); got != 7 {
		t.Errorf("newNode allocates %v, want 7 (the node and six cells)", got)
	}
	if sink.key.Peek() != 1 || sink.value.Peek() != 10 || sink.parent.Peek() != parent ||
		sink.lchild.Peek() != nil || sink.rchild.Peek() != nil || sink.red.Peek() {
		t.Error("newNode's Vars do not hold its arguments")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	s := stm.MustNew(stm.Config{Algo: stm.NOrec})
	defer s.Close()
	tree := New()
	th := s.MustRegister()
	defer th.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		i := i
		_ = th.Atomically(func(tx *stm.Tx) error { tree.Insert(tx, i, i); return nil })
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		_ = th.Atomically(func(tx *stm.Tx) error { tree.Contains(tx, k); return nil })
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	s := stm.MustNew(stm.Config{Algo: stm.NOrec})
	defer s.Close()
	tree := New()
	th := s.MustRegister()
	defer th.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % 8192
		_ = th.Atomically(func(tx *stm.Tx) error { tree.Insert(tx, k, k); return nil })
		_ = th.Atomically(func(tx *stm.Tx) error { tree.Delete(tx, k); return nil })
	}
}
