package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the inline commit (inlineCommit), which is every RInval writer
// commit below four Ps: no server goroutine runs, and each touched stream's
// timestamp is the commit's lock.

// TestInlineCommitStartsNoServer: at GOMAXPROCS 2 an RInval System starts no
// goroutine, and a visible attempt — the retry of a validation abort, its
// read published and doomable — commits inline like the others: its mailbox
// word never moves, and the commit is one helped epoch of its stream.
func TestInlineCommitStartsNoServer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			s, err := New(Config{Algo: algo, MaxThreads: 4, InvalServers: 2, StepsAhead: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("New started %d goroutines, want none", got-before)
			}
			th, other := s.MustRegister(), s.MustRegister()
			v := NewVar(0)
			word := th.slot.state.Load()
			if err := th.Atomically(func(tx *Tx) error {
				failFirstAttempt(t, tx, other)
				if tx.kind != kindVisible || !s.active.has(th.idx) {
					t.Fatalf("retry of a validation abort is %v (active bit %v), want a visible attempt",
						tx.kind, s.active.has(th.idx))
				}
				tx.Store(v, tx.Load(v).(int)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := th.slot.state.Load(); got != word {
				t.Fatalf("mailbox word %#x -> %#x: a visible attempt published a request", word, got)
			}
			if got, ts := v.Peek().(int), s.streams[0].ts.Load(); got != 1 || ts != 4 {
				t.Fatalf("counter = %d, timestamp = %d; want 1 and 4 (two commits)", got, ts)
			}
			if st, srv := th.Stats(), s.ShardServerStats()[0]; st.HelpedEpochs != 1 || srv.Epochs != 2 {
				t.Fatalf("HelpedEpochs = %d, stream Epochs = %d; want 1 and 2", st.HelpedEpochs, srv.Epochs)
			}
			closeAll(t, s, th, other)
		})
	}
}

// TestInlineCrossShardWriteSkew: a transaction that reads a Var on one stream
// and writes a Var on another holds both timestamps while it commits, so two
// such transactions cannot each write under the other's stale read. Each
// attempt kind meets the other Thread's commit between its reads and its
// write — solo (the other Thread registers mid-attempt), invisible, and
// visible (the retry of a validation abort) — and must not commit its write;
// its retry sees the other write and writes nothing. Then two Threads run the
// pattern concurrently. At most one of x and y is ever 1.
func TestInlineCrossShardWriteSkew(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, algo := range append([]Algo{InvalSTM}, rinvalAlgos...) {
		shards := 4
		if algo == InvalSTM {
			shards = 1
		}
		for _, kind := range []attemptKind{kindSolo, kindInvisible, kindVisible} {
			t.Run(fmt.Sprintf("%s/%v", algo, kind), func(t *testing.T) {
				s, err := New(Config{Algo: algo, MaxThreads: 4, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				x, y := varInShard(t, s, 0, 0), varInShard(t, s, shards-1, 0)
				th := s.MustRegister()
				var other *Thread
				if kind != kindSolo {
					other = s.MustRegister()
				}
				skewed := 1 // the attempt of the given kind
				if kind == kindVisible {
					skewed = 2
				}
				// claim sets mine to 1 if neither x nor y is 1 yet.
				claim := func(tx *Tx, mine *Var) {
					if tx.Load(x).(int)+tx.Load(y).(int) == 0 {
						tx.Store(mine, 1)
					}
				}
				if err := th.Atomically(func(tx *Tx) error {
					if kind == kindVisible {
						failFirstAttempt(t, tx, other)
					}
					if tx.Attempt() == skewed {
						if tx.kind != kind {
							t.Fatalf("attempt %d is %v, want %v", tx.Attempt(), tx.kind, kind)
						}
						tx.Load(x)
						tx.Load(y)
						if kind == kindSolo {
							other = s.MustRegister()
						}
						if err := other.Atomically(func(tx *Tx) error { claim(tx, y); return nil }); err != nil {
							t.Fatal(err)
						}
						tx.Store(x, 1) // under a read of y the other Thread overwrote
						return nil
					}
					claim(tx, x)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if x.Peek() != 0 || y.Peek() != 1 {
					t.Fatalf("x = %v, y = %v after a skewed claim, want 0 and 1", x.Peek(), y.Peek())
				}
				if kind == kindSolo {
					skewStress(t, s, x, y, th, other)
				}
				closeAll(t, s, th, other)
			})
		}
	}
}

// skewStress resets x and y, then has two Threads race to claim one of them
// many times over; it fails on any round where both claims committed. Each
// claim waits, after its reads, until the other has read too (for a bounded
// number of polls), so the two commits overlap.
func skewStress(t *testing.T, s *System, x, y *Var, a, b *Thread) {
	t.Helper()
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		var read atomic.Int32
		if err := a.Atomically(func(tx *Tx) error {
			tx.Store(x, 0)
			tx.Store(y, 0)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, c := range []struct {
			th   *Thread
			mine *Var
		}{{a, x}, {b, y}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.th.Atomically(func(tx *Tx) error {
					if tx.Load(x).(int)+tx.Load(y).(int) == 0 {
						read.Add(1)
						for i := 0; read.Load() < 2 && i < 1<<16; i++ {
							if i%64 == 63 {
								runtime.Gosched()
							}
						}
						tx.Store(c.mine, 1)
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if sum := x.Peek().(int) + y.Peek().(int); sum != 1 {
			t.Fatalf("round %d: x + y = %d, want exactly one claim", r, sum)
		}
	}
}
