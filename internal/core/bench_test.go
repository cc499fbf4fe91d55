package core

import (
	"sync"
	"testing"
)

// Per-engine micro-benchmarks: the cost of the primitive operations on the
// transaction critical path, uncontended. These are the per-operation
// overheads behind the paper's Figure 1(c).

func benchSys(b *testing.B, algo Algo) (*System, *Thread) {
	b.Helper()
	s, err := New(Config{Algo: algo, MaxThreads: 4, InvalServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	th := s.MustRegister()
	b.Cleanup(func() {
		th.Close()
		_ = s.Close()
	})
	return s, th
}

func BenchmarkReadOnlyTx(b *testing.B) {
	for _, a := range Algos {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			_, th := benchSys(b, a)
			v := NewVar(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomically(func(tx *Tx) error {
					_ = tx.Load(v)
					return nil
				})
			}
		})
	}
}

// benchShared runs body once per engine on a lone Thread, as <engine>, and
// again as <engine>/shared with a second, idle Thread registered. The lone
// Thread's attempts may be solo (System.attemptKind: no read signature, no
// liveness, timestamp validation). The shared ones of RInval (rinval-v1/shared,
// rinval-v2/shared) publish every read and their liveness as the paper's
// protocol does (invalRead); norec/shared and invalstm/shared measure the
// invisible attempt — the validated read, logged, and the CAS commit — which
// is all an uncontended NOrec or InvalSTM attempt runs with two Threads
// registered. Every read path an uncontended client takes stays measured.
func benchShared(b *testing.B, algos []Algo, body func(b *testing.B, th *Thread)) {
	for _, a := range algos {
		for _, name := range []string{a.String(), a.String() + "/shared"} {
			b.Run(name, func(b *testing.B) {
				s, th := benchSys(b, a)
				if name != a.String() {
					b.Cleanup(s.MustRegister().Close) // runs before benchSys's cleanup
				}
				body(b, th)
			})
		}
	}
}

func BenchmarkWriteTx(b *testing.B) {
	benchShared(b, Algos, func(b *testing.B, th *Thread) {
		v := NewVar(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = th.Atomically(func(tx *Tx) error {
				tx.Store(v, i)
				return nil
			})
		}
	})
}

// yardstickAlgos are the four engines the repository benchmark compares.
var yardstickAlgos = []Algo{NOrec, InvalSTM, RInvalV1, RInvalV2}

func BenchmarkReadHeavyTx(b *testing.B) {
	benchShared(b, append(yardstickAlgos, TL2), func(b *testing.B, th *Thread) {
		vars := make([]*Var, 64)
		for i := range vars {
			vars[i] = NewVar(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = th.Atomically(func(tx *Tx) error {
				sum := 0
				for _, v := range vars {
					sum += tx.Load(v).(int)
				}
				tx.Store(vars[0], sum)
				return nil
			})
		}
	})
}

// BenchmarkScanTx is scan_ro_c1's shape: 64 Loads and no Store, so the read
// path is all the work and no commit-server is asked. For the invalidation
// engines that is a timestamp re-check per read on a lone (solo) Thread; in
// the shared variant the signature publish and status check per read for
// RInval, and a timestamp re-check and a log append per read for InvalSTM.
func BenchmarkScanTx(b *testing.B) {
	benchShared(b, yardstickAlgos, func(b *testing.B, th *Thread) {
		vars := make([]*Var, 64)
		for i := range vars {
			vars[i] = NewVar(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = th.Atomically(func(tx *Tx) error {
				for _, v := range vars {
					_ = tx.Load(v)
				}
				return nil
			})
		}
	})
}

func BenchmarkContendedCounter(b *testing.B) {
	for _, a := range append(yardstickAlgos, TL2) {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			s, err := New(Config{Algo: a, MaxThreads: 8, InvalServers: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			counter := NewVar(0)
			const workers = 4
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/workers + 1
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.MustRegister()
					defer th.Close()
					for i := 0; i < per; i++ {
						_ = th.Atomically(func(tx *Tx) error {
							tx.Store(counter, tx.Load(counter).(int)+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
		})
	}
}
