package ds

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/ssrg-vt/rinval/stm"
)

func newSys(t *testing.T, algo stm.Algo) (*stm.System, *stm.Thread) {
	t.Helper()
	s, err := stm.New(stm.Config{Algo: algo, MaxThreads: 16, InvalServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	th := s.MustRegister()
	t.Cleanup(func() {
		th.Close()
		_ = s.Close()
	})
	return s, th
}

// ---- List ----

func TestListBasics(t *testing.T) {
	_, th := newSys(t, stm.NOrec)
	l := NewList()
	_ = th.Atomically(func(tx *stm.Tx) error {
		if l.Contains(tx, 1) || l.Size(tx) != 0 {
			t.Error("empty list wrong")
		}
		if !l.Insert(tx, 5, 50) || !l.Insert(tx, 1, 10) || !l.Insert(tx, 9, 90) {
			t.Error("insert failed")
		}
		if l.Insert(tx, 5, 55) {
			t.Error("duplicate insert returned true")
		}
		if v, ok := l.Get(tx, 5); !ok || v != 55 {
			t.Errorf("Get(5) = %d,%v", v, ok)
		}
		if l.Size(tx) != 3 || l.Sum(tx) != 10+55+90 {
			t.Errorf("size=%d sum=%d", l.Size(tx), l.Sum(tx))
		}
		if !l.Delete(tx, 1) || l.Delete(tx, 1) {
			t.Error("delete semantics wrong")
		}
		if l.Delete(tx, 777) {
			t.Error("deleted missing key")
		}
		return nil
	})
	keys := l.KeysQuiescent()
	if len(keys) != 2 || keys[0] != 5 || keys[1] != 9 {
		t.Fatalf("keys %v", keys)
	}
}

func TestListSortedProperty(t *testing.T) {
	_, th := newSys(t, stm.NOrec)
	f := func(keys []uint8) bool {
		l := NewList()
		model := map[int]bool{}
		for _, k := range keys {
			k := int(k)
			model[k] = true
			if err := th.Atomically(func(tx *stm.Tx) error {
				l.Insert(tx, k, k)
				return nil
			}); err != nil {
				return false
			}
		}
		got := l.KeysQuiescent()
		if len(got) != len(model) {
			return false
		}
		if !sort.IntsAreSorted(got) {
			return false
		}
		for _, k := range got {
			if !model[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestListConcurrent(t *testing.T) {
	for _, algo := range stm.Algos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s, _ := newSys(t, algo)
			l := NewList()
			const workers, per = 4, 60
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < per; i++ {
						k := w*per + i
						_ = th.Atomically(func(tx *stm.Tx) error {
							l.Insert(tx, k, 1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			keys := l.KeysQuiescent()
			if len(keys) != workers*per {
				t.Fatalf("len %d want %d", len(keys), workers*per)
			}
			if !sort.IntsAreSorted(keys) {
				t.Fatal("unsorted after concurrent inserts")
			}
		})
	}
}

// ---- Map ----

func TestMapBasics(t *testing.T) {
	_, th := newSys(t, stm.RInvalV1)
	m := NewMap[string, int](8, HashString)
	_ = th.Atomically(func(tx *stm.Tx) error {
		if m.Contains(tx, "a") || m.Size(tx) != 0 {
			t.Error("empty map wrong")
		}
		if !m.Put(tx, "a", 1) || !m.Put(tx, "b", 2) {
			t.Error("fresh Put returned false")
		}
		if m.Put(tx, "a", 10) {
			t.Error("update Put returned true")
		}
		if v, ok := m.Get(tx, "a"); !ok || v != 10 {
			t.Errorf("Get(a)=%d,%v", v, ok)
		}
		if v, inserted := m.PutIfAbsent(tx, "a", 99); inserted || v != 10 {
			t.Errorf("PutIfAbsent existing: %d %v", v, inserted)
		}
		if v, inserted := m.PutIfAbsent(tx, "c", 3); !inserted || v != 3 {
			t.Errorf("PutIfAbsent new: %d %v", v, inserted)
		}
		if m.Size(tx) != 3 {
			t.Errorf("size %d", m.Size(tx))
		}
		if !m.Delete(tx, "b") || m.Delete(tx, "b") {
			t.Error("delete semantics wrong")
		}
		return nil
	})
	seen := map[string]int{}
	m.ForEachQuiescent(func(k string, v int) { seen[k] = v })
	if len(seen) != 2 || seen["a"] != 10 || seen["c"] != 3 {
		t.Fatalf("final contents %v", seen)
	}
}

func TestMapMatchesModel(t *testing.T) {
	_, th := newSys(t, stm.NOrec)
	type op struct {
		Key  uint8
		Val  int16
		Kind uint8
	}
	f := func(ops []op) bool {
		m := NewMap[int, int](4, HashInt) // few buckets: force chains
		model := map[int]int{}
		for _, o := range ops {
			k := int(o.Key) % 32
			var badOutcome bool
			err := th.Atomically(func(tx *stm.Tx) error {
				switch o.Kind % 3 {
				case 0:
					_, existed := model[k]
					if m.Put(tx, k, int(o.Val)) == existed {
						badOutcome = true
					}
				case 1:
					_, existed := model[k]
					if m.Delete(tx, k) != existed {
						badOutcome = true
					}
				case 2:
					v, ok := m.Get(tx, k)
					mv, existed := model[k]
					if ok != existed || (ok && v != mv) {
						badOutcome = true
					}
				}
				return nil
			})
			if err != nil || badOutcome {
				return false
			}
			switch o.Kind % 3 {
			case 0:
				model[k] = int(o.Val)
			case 1:
				delete(model, k)
			}
		}
		count := 0
		m.ForEachQuiescent(func(k, v int) {
			count++
			if model[k] != v {
				count = -1 << 30
			}
		})
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMapConcurrentDisjoint(t *testing.T) {
	for _, algo := range []stm.Algo{stm.InvalSTM, stm.RInvalV2, stm.RInvalV3} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s, _ := newSys(t, algo)
			m := NewMap[int, int](16, HashInt)
			const workers, per = 4, 80
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < per; i++ {
						k := w*per + i
						_ = th.Atomically(func(tx *stm.Tx) error {
							m.Put(tx, k, k*2)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			count := 0
			ok := true
			m.ForEachQuiescent(func(k, v int) {
				count++
				if v != k*2 {
					ok = false
				}
			})
			if count != workers*per || !ok {
				t.Fatalf("count=%d ok=%v", count, ok)
			}
		})
	}
}

func TestMapZeroBucketsClamped(t *testing.T) {
	m := NewMap[int, int](0, HashInt)
	if len(m.buckets) != 1 {
		t.Fatalf("buckets %d", len(m.buckets))
	}
}

func mustPut(t *testing.T, th *stm.Thread, m *Map[int, int], kv ...int) {
	t.Helper()
	if err := th.Atomically(func(tx *stm.Tx) error {
		for i := 0; i < len(kv); i += 2 {
			m.Put(tx, kv[i], kv[i+1])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMapDisjointKeysSameBucket: two keys in one bucket are two data items.
// Transaction A reads and updates key 1; before A commits, B commits an
// update of key 2 on another Thread. A's first attempt commits, and both
// updates land. The test pins two Ps: with two Threads registered, no
// engine's attempt then publishes a read set a commit could doom (at four Ps
// RInval's attempts are visible, and a bloom-signature collision between the
// two keys' Vars may doom A).
func TestMapDisjointKeysSameBucket(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, algo := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.TL2, stm.RInvalV1, stm.RInvalV2} {
		t.Run(algo.String(), func(t *testing.T) {
			s, a := newSys(t, algo)
			b := s.MustRegister()
			defer b.Close()
			m := NewMap[int, int](1, HashInt)
			mustPut(t, a, m, 1, 10, 2, 20)
			attempts := 0
			if err := a.Atomically(func(tx *stm.Tx) error {
				attempts = tx.Attempt()
				v, _ := m.Get(tx, 1)
				m.Put(tx, 1, v+1)
				if tx.Attempt() == 1 {
					mustPut(t, b, m, 2, 21)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if attempts != 1 {
				t.Errorf("A committed on attempt %d, want 1: B's update of another key aborted it", attempts)
			}
			got := map[int]int{}
			m.ForEachQuiescent(func(k, v int) { got[k] = v })
			if got[1] != 11 || got[2] != 21 || len(got) != 2 {
				t.Errorf("final contents %v, want map[1:11 2:21]", got)
			}
		})
	}
}

// TestMapDeleteReinsertUnderReader: A reads key 7; B then deletes 7 and
// re-inserts it with a new value; A then stores its read value + 1 to 7. A
// must retry on the bucket and add to B's value — no lost update, and no
// write to the entry B unlinked.
func TestMapDeleteReinsertUnderReader(t *testing.T) {
	for _, algo := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.TL2, stm.RInvalV1, stm.RInvalV2} {
		t.Run(algo.String(), func(t *testing.T) {
			s, a := newSys(t, algo)
			b := s.MustRegister()
			defer b.Close()
			m := NewMap[int, int](1, HashInt)
			mustPut(t, a, m, 7, 100)
			unlinked := m.buckets[0].Peek()[0]
			attempts := 0
			if err := a.Atomically(func(tx *stm.Tx) error {
				attempts = tx.Attempt()
				v, _ := m.Get(tx, 7)
				if tx.Attempt() == 1 {
					if err := b.Atomically(func(tx *stm.Tx) error {
						m.Delete(tx, 7)
						m.Put(tx, 7, 500)
						return nil
					}); err != nil {
						return err
					}
				}
				m.Put(tx, 7, v+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if attempts < 2 {
				t.Errorf("A committed on attempt %d over a deleted and re-inserted key", attempts)
			}
			got := map[int]int{}
			m.ForEachQuiescent(func(k, v int) { got[k] = v })
			if got[7] != 501 || len(got) != 1 {
				t.Errorf("final contents %v, want map[7:501]", got)
			}
			if v := unlinked.val.Peek(); v != 100 {
				t.Errorf("the unlinked entry holds %d, want its last linked value 100", v)
			}
		})
	}
}

// TestMapAllocations: a Get of a present key allocates nothing and a Put on a
// present key one cell, beyond what the empty transaction allocates.
func TestMapAllocations(t *testing.T) {
	for _, algo := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2} {
		t.Run(algo.String(), func(t *testing.T) {
			_, th := newSys(t, algo)
			m := NewMap[int, int](1, HashInt)
			mustPut(t, th, m, 1, 0, 2, 0)
			perTx := func(fn func(*stm.Tx) error) float64 {
				return testing.AllocsPerRun(200, func() {
					if err := th.Atomically(fn); err != nil {
						t.Fatal(err)
					}
				})
			}
			empty := perTx(func(*stm.Tx) error { return nil })
			get := perTx(func(tx *stm.Tx) error { m.Get(tx, 1); return nil })
			put := perTx(func(tx *stm.Tx) error { m.Put(tx, 1, 5); return nil })
			if get != empty {
				t.Errorf("Get of a present key allocates %v, want 0", get-empty)
			}
			if put != empty+1 {
				t.Errorf("Put on a present key allocates %v, want 1 (the cell)", put-empty)
			}
		})
	}
}

// BenchmarkMapGet times a read-only transaction of four Gets of present keys
// in a 16-bucket Map of 64 keys, one client: the read-mostly cost of the
// layout. A Get loads the bucket and then the entry's value Var, so it logs
// two reads where a bucket holding its values inline logs one; on a 2-vCPU
// host that costs ×1.2–1.45 per transaction (EXPERIMENTS.md, "a map key is
// its own Var: the read and insert side").
func BenchmarkMapGet(b *testing.B) {
	for _, algo := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2} {
		b.Run(algo.String(), func(b *testing.B) {
			sys := stm.MustNew(stm.Config{Algo: algo, InvalServers: 1})
			defer sys.Close()
			th := sys.MustRegister()
			defer th.Close()
			m := NewMap[int, int](16, HashInt)
			_ = th.Atomically(func(tx *stm.Tx) error {
				for k := 0; k < 64; k++ {
					m.Put(tx, k, k)
				}
				return nil
			})
			var base int
			body := func(tx *stm.Tx) error {
				for k := base; k < base+4; k++ {
					m.Get(tx, k)
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base = i % 61
				if err := th.Atomically(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Queue ----

func TestQueueFIFO(t *testing.T) {
	_, th := newSys(t, stm.RInvalV2)
	q := NewQueue[int]()
	_ = th.Atomically(func(tx *stm.Tx) error {
		if _, ok := q.Dequeue(tx); ok {
			t.Error("dequeue from empty succeeded")
		}
		if _, ok := q.Peek(tx); ok {
			t.Error("peek on empty succeeded")
		}
		for i := 1; i <= 5; i++ {
			q.Enqueue(tx, i)
		}
		if q.Size(tx) != 5 {
			t.Errorf("size %d", q.Size(tx))
		}
		if v, ok := q.Peek(tx); !ok || v != 1 {
			t.Errorf("peek %d %v", v, ok)
		}
		for i := 1; i <= 5; i++ {
			v, ok := q.Dequeue(tx)
			if !ok || v != i {
				t.Errorf("dequeue %d got %d,%v", i, v, ok)
			}
		}
		if q.Size(tx) != 0 {
			t.Error("not empty after drain")
		}
		// Refill after empty: tail handling after drain.
		q.Enqueue(tx, 42)
		if v, ok := q.Dequeue(tx); !ok || v != 42 {
			t.Error("refill broken")
		}
		return nil
	})
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	for _, algo := range stm.Algos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s, _ := newSys(t, algo)
			q := NewQueue[int]()
			const producers, per = 3, 50
			var wg sync.WaitGroup
			var consumed sync.Map
			var consumedCount int64
			var mu sync.Mutex
			for p := 0; p < producers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < per; i++ {
						v := p*per + i
						_ = th.Atomically(func(tx *stm.Tx) error {
							q.Enqueue(tx, v)
							return nil
						})
					}
				}()
			}
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for {
						var v int
						var got bool
						_ = th.Atomically(func(tx *stm.Tx) error {
							v, got = q.Dequeue(tx)
							return nil
						})
						if !got {
							mu.Lock()
							done := consumedCount >= producers*per
							mu.Unlock()
							if done {
								return
							}
							continue
						}
						if _, dup := consumed.LoadOrStore(v, true); dup {
							t.Errorf("value %d consumed twice", v)
							return
						}
						mu.Lock()
						consumedCount++
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			mu.Lock()
			n := consumedCount
			mu.Unlock()
			if n != producers*per {
				t.Fatalf("consumed %d want %d", n, producers*per)
			}
		})
	}
}

func TestQueueDrainQuiescent(t *testing.T) {
	_, th := newSys(t, stm.NOrec)
	q := NewQueue[string]()
	_ = th.Atomically(func(tx *stm.Tx) error {
		q.Enqueue(tx, "a")
		q.Enqueue(tx, "b")
		return nil
	})
	got := q.DrainQuiescent()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("drained %v", got)
	}
	if q.size.Peek() != 0 {
		t.Fatal("size not reset")
	}
}

func TestHashFunctions(t *testing.T) {
	if HashInt(1) == HashInt(2) {
		t.Fatal("HashInt collides on 1,2")
	}
	if HashString("abc") == HashString("abd") {
		t.Fatal("HashString collides on abc/abd")
	}
	if HashString("") == 0 {
		t.Fatal("empty string hash is zero (FNV offset expected)")
	}
	// Interleaved ops from random keys stay deterministic.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		k := rng.Int()
		if HashInt(k) != HashInt(k) {
			t.Fatal("HashInt not deterministic")
		}
	}
}
