package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// BenchmarkScanContend is the case for Config.Versions (ROADMAP item 12): one
// client runs 64-read AtomicallyRO scans (b.N of them) while another runs
// 2-load/2-store transfers over the same 1,024 Vars, per engine at Versions
// 0, 2 and 8. It reports both clients' rates (scan/s, write/s), the scanner's
// conflict aborts per commit and its snapshot fallbacks per scan. At
// Versions 0 every scan runs the regular attempt loop; above, its first
// attempt is a snapshot one.
func BenchmarkScanContend(b *testing.B) {
	for _, a := range []Algo{NOrec, InvalSTM, RInvalV1} {
		for _, versions := range []int{0, 2, 8} {
			b.Run(fmt.Sprintf("%s/v%d", a, versions), func(b *testing.B) {
				s, err := New(Config{Algo: a, MaxThreads: 4, InvalServers: 1, Versions: versions})
				if err != nil {
					b.Fatal(err)
				}
				vars := make([]*Var, 1024)
				for i := range vars {
					vars[i] = NewVar(0)
				}
				scanner, writer := s.MustRegister(), s.MustRegister()
				var stop atomic.Bool
				var writes atomic.Uint64
				done := make(chan struct{})
				go func() {
					defer close(done)
					rng := uint64(1)
					for !stop.Load() {
						rng = rng*6364136223846793005 + 1442695040888963407
						i, j := int(rng>>33)%len(vars), int(rng>>13)%len(vars)
						_ = writer.Atomically(func(tx *Tx) error {
							x, y := tx.Load(vars[i]).(int), tx.Load(vars[j]).(int)
							tx.Store(vars[i], x-1)
							tx.Store(vars[j], y+1)
							return nil
						})
						writes.Add(1)
					}
				}()
				b.ResetTimer()
				start, w0 := time.Now(), writes.Load()
				for n := 0; n < b.N; n++ {
					scan := vars[n*64%len(vars):][:64]
					_ = scanner.AtomicallyRO(func(tx *Tx) error {
						for _, v := range scan {
							_ = tx.Load(v)
						}
						return nil
					})
				}
				elapsed, w := time.Since(start).Seconds(), writes.Load()-w0
				b.StopTimer()
				stop.Store(true)
				<-done
				st := scanner.Stats()
				b.ReportMetric(float64(b.N)/elapsed, "scan/s")
				b.ReportMetric(float64(w)/elapsed, "write/s")
				b.ReportMetric(float64(st.Aborts)/float64(st.Commits), "scan-aborts/commit")
				b.ReportMetric(float64(st.ROFallbacks)/float64(b.N), "fallbacks/scan")
				scanner.Close()
				writer.Close()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
