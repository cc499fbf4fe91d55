package stm_test

import (
	"testing"

	"github.com/ssrg-vt/rinval/stm"
)

// link is a Var whose value is the next link: loading one yields the next Var
// to load, and nothing else sits between them.
type link stm.Var[*link]

func (l *link) next(tx *stm.Tx) *link { return (*stm.Var[*link])(l).Load(tx) }

// BenchmarkTypedLoadChain times one read-only transaction of a lone NOrec
// Thread that follows a chain of 64 Vars, each load's value the next Var: 64
// dependent loads and nothing else, so ns/op is the typed read path's latency
// chain, down to the hops from a *Var to its current cell.
func BenchmarkTypedLoadChain(b *testing.B) {
	const n = 64
	s := stm.MustNew(stm.Config{Algo: stm.NOrec})
	defer s.Close()
	th := s.MustRegister()
	defer th.Close()
	var head *link
	for i := 0; i < n; i++ {
		head = (*link)(stm.NewVar(head))
	}
	fn := func(tx *stm.Tx) error {
		steps := 0
		for l := head; l != nil; l = l.next(tx) {
			steps++
		}
		if steps != n {
			b.Fatalf("chain of %d links, want %d", steps, n)
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := th.Atomically(fn); err != nil {
			b.Fatal(err)
		}
	}
}
