package ds

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ssrg-vt/rinval/stm"
)

// BenchmarkMapContendedPairs runs the shape of the repository benchmark's
// kv_contend_c2 workload — a 16-bucket Map holding 32 key pairs, two clients,
// 90 % pair transfers (2 Get + 2 Put) and 10 % audits of a pair's sum — and
// reports where its aborts come from rather than how fast it runs:
//
//   - aborts/commit, and its validation and invalidation parts;
//   - val-aborts/attempt: the share of attempts that retry a validation
//     abort. Every client retries until it commits, so for InvalSTM with two
//     Threads registered, whose attempts read invisibly unless they retry a
//     validation abort, this is the share of attempts that ran visible;
//   - under /attr (Config.Attribution), fp-dooms/sampled: the share of
//     sampled invalidation dooms whose exact read and write sets were
//     disjoint, that is, dooms caused by a bloom-signature collision alone.
//
// Run it with a fixed -benchtime (e.g. 4s) and -count to compare two commits.
func BenchmarkMapContendedPairs(b *testing.B) {
	for _, algo := range []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2} {
		for _, attr := range []bool{false, true} {
			name := algo.String()
			if attr {
				name += "/attr"
			}
			b.Run(name, func(b *testing.B) { benchContendedPairs(b, algo, attr) })
		}
	}
}

func benchContendedPairs(b *testing.B, algo stm.Algo, attr bool) {
	const buckets, pairs, initial, clients = 16, 32, 1000, 2
	sys, err := stm.New(stm.Config{Algo: algo, MaxThreads: clients + 1, InvalServers: 1, Attribution: attr})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	m := NewMap[int, int](buckets, HashInt)
	ths := make([]*stm.Thread, clients)
	for i := range ths {
		ths[i] = sys.MustRegister()
		defer ths[i].Close()
	}
	if err := ths[0].Atomically(func(tx *stm.Tx) error {
		for k := 0; k < 2*pairs; k++ {
			m.Put(tx, k, initial)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	before := sys.Stats()
	var torn sync.Map
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			var pair, amount int
			var audit bool
			body := func(tx *stm.Tx) error {
				x, _ := m.Get(tx, 2*pair)
				y, _ := m.Get(tx, 2*pair+1)
				if audit {
					if x+y != 2*initial {
						torn.Store(c, true)
					}
					return nil
				}
				m.Put(tx, 2*pair, x-amount)
				m.Put(tx, 2*pair+1, y+amount)
				return nil
			}
			for i := c; i < b.N; i += clients {
				pair, audit, amount = rng.Intn(pairs), rng.Intn(10) == 0, 1+rng.Intn(10)
				if err := ths[c].Atomically(body); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	torn.Range(func(k, _ any) bool {
		b.Errorf("client %v: an audit saw a broken pair sum", k)
		return true
	})
	st := sys.Stats()
	commits := float64(st.Commits - before.Commits)
	aborts := float64(st.Aborts - before.Aborts)
	val := float64(st.AbortReasons[stm.AbortValidation] - before.AbortReasons[stm.AbortValidation])
	inval := float64(st.AbortReasons[stm.AbortInvalidated] - before.AbortReasons[stm.AbortInvalidated])
	b.ReportMetric(aborts/commits, "aborts/commit")
	b.ReportMetric(val/commits, "val-aborts/commit")
	b.ReportMetric(inval/commits, "inval-aborts/commit")
	b.ReportMetric(val/(commits+aborts), "val-aborts/attempt")
	if attr {
		fp := sys.ConflictReport().FP
		b.ReportMetric(float64(fp.Sampled), "sampled-dooms")
		if fp.Sampled > 0 {
			b.ReportMetric(float64(fp.FalsePositive)/float64(fp.Sampled), "fp-dooms/sampled")
		}
	}
}
