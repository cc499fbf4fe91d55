// Package verify stress-checks an engine's safety properties: opacity
// (consistent snapshots inside every transaction body, even doomed ones),
// atomicity (conservation of transferred quantities), structural integrity
// of a transactional red-black tree under a concurrent mixed workload, and
// both of the first two while Threads register and close around a
// long-lived client. cmd/rinval-verify wraps it as a CLI; the test suite uses
// it as one more adversarial pass over every engine.
package verify

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/container/rbtree"
	"github.com/ssrg-vt/rinval/internal/stamp"
	"github.com/ssrg-vt/rinval/stm"
)

// Options configures a verification run.
type Options struct {
	Threads  int           // concurrent workers per check (>= 2)
	Duration time.Duration // wall time per check
	Seed     uint64
}

// Report summarizes the evidence gathered.
type Report struct {
	Snapshots uint64 // consistent multi-var snapshots observed
	Audits    uint64 // conserved-total audits performed
	TreeOps   uint64 // red-black tree operations executed
	Churns    uint64 // short-lived Threads registered, run and closed
	Commits   uint64
	Aborts    uint64
}

// Engine runs all checks against one engine and returns the first safety
// violation found.
func Engine(algo stm.Algo, o Options) (Report, error) {
	if o.Threads < 2 {
		o.Threads = 2
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	var rep Report
	if err := checkOpacity(algo, o, &rep); err != nil {
		return rep, fmt.Errorf("opacity: %w", err)
	}
	if err := checkConservation(algo, o, &rep); err != nil {
		return rep, fmt.Errorf("conservation: %w", err)
	}
	if err := checkTree(algo, o, &rep); err != nil {
		return rep, fmt.Errorf("rbtree: %w", err)
	}
	if err := checkChurn(algo, o, &rep); err != nil {
		return rep, fmt.Errorf("churn: %w", err)
	}
	return rep, nil
}

func newSystem(algo stm.Algo, o Options) (*stm.System, error) {
	return stm.New(stm.Config{
		Algo:         algo,
		MaxThreads:   o.Threads + 1,
		InvalServers: min(4, o.Threads+1),
		Seed:         o.Seed,
	})
}

// checkOpacity: writers keep an array of vars all-equal; readers assert
// equality inside the body. Any observed mix of old and new values is an
// opacity violation.
func checkOpacity(algo stm.Algo, o Options, rep *Report) error {
	sys, err := newSystem(algo, o)
	if err != nil {
		return err
	}
	defer sys.Close()
	const n = 6
	vars := make([]*stm.Var[int], n)
	for i := range vars {
		vars[i] = stm.NewVar(0)
	}
	var stop atomic.Bool
	var violations atomic.Int64
	var snapshots atomic.Uint64
	var wg sync.WaitGroup
	writers := o.Threads / 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.MustRegister()
			defer th.Close()
			for !stop.Load() {
				_ = th.Atomically(func(tx *stm.Tx) error {
					v0 := vars[0].Load(tx)
					for _, v := range vars {
						v.Store(tx, v0+1)
					}
					return nil
				})
			}
		}()
	}
	for r := writers; r < o.Threads; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.MustRegister()
			defer th.Close()
			for !stop.Load() {
				_ = th.Atomically(func(tx *stm.Tx) error {
					first := vars[0].Load(tx)
					for _, v := range vars[1:] {
						if v.Load(tx) != first {
							violations.Add(1)
							return nil
						}
					}
					return nil
				})
				snapshots.Add(1)
			}
		}()
	}
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	rep.Snapshots += snapshots.Load()
	if v := violations.Load(); v != 0 {
		return fmt.Errorf("%d inconsistent snapshots observed", v)
	}
	final := vars[0].Peek()
	for i, v := range vars {
		if v.Peek() != final {
			return fmt.Errorf("final state diverged at var %d", i)
		}
	}
	return nil
}

// checkConservation: random transfers between accounts; auditors sum all
// accounts transactionally and at the end quiescently. Both bodies yield
// mid-attempt, so attempts overlap even on one P. For InvalSTM, whose
// attempts read invisibly first and visibly on the retry of a validation
// abort, both validation and invalidation aborts must occur: the proof that
// both kinds of attempt ran.
func checkConservation(algo stm.Algo, o Options, rep *Report) error {
	sys, err := newSystem(algo, o)
	if err != nil {
		return err
	}
	defer sys.Close()
	const accounts, initial = 12, 500
	accs := make([]*stm.Var[int], accounts)
	for i := range accs {
		accs[i] = stm.NewVar(initial)
	}
	var stop atomic.Bool
	var badAudits atomic.Int64
	var audits atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < o.Threads-1; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.MustRegister()
			defer th.Close()
			rng := stamp.NewRand(o.Seed, uint64(w)+40)
			for !stop.Load() {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				amt := rng.Intn(40)
				_ = th.Atomically(func(tx *stm.Tx) error {
					accs[from].Store(tx, accs[from].Load(tx)-amt)
					runtime.Gosched()
					accs[to].Store(tx, accs[to].Load(tx)+amt)
					return nil
				})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := sys.MustRegister()
		defer th.Close()
		for !stop.Load() {
			total := 0
			_ = th.Atomically(func(tx *stm.Tx) error {
				total = 0
				for i, a := range accs {
					if i == accounts/2 {
						runtime.Gosched()
					}
					total += a.Load(tx)
				}
				return nil
			})
			if total != accounts*initial {
				badAudits.Add(1)
			}
			audits.Add(1)
		}
	}()
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	rep.Audits += audits.Load()
	st := sys.Stats()
	rep.Commits += st.Commits
	rep.Aborts += st.Aborts
	if v := badAudits.Load(); v != 0 {
		return fmt.Errorf("%d audits saw a wrong total", v)
	}
	total := 0
	for _, a := range accs {
		total += a.Peek()
	}
	if total != accounts*initial {
		return fmt.Errorf("final total %d != %d", total, accounts*initial)
	}
	if algo == stm.InvalSTM {
		if v, i := st.AbortReasons[stm.AbortValidation], st.AbortReasons[stm.AbortInvalidated]; v == 0 || i == 0 {
			return fmt.Errorf("validation aborts %d, invalidation aborts %d: want both, one per attempt kind", v, i)
		}
	}
	return nil
}

// checkTree: mixed insert/delete/lookup traffic, then full invariant check.
func checkTree(algo stm.Algo, o Options, rep *Report) error {
	sys, err := newSystem(algo, o)
	if err != nil {
		return err
	}
	defer sys.Close()
	tree := rbtree.New()
	const keyRange = 512
	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < o.Threads; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.MustRegister()
			defer th.Close()
			rng := stamp.NewRand(o.Seed, uint64(w)+90)
			for !stop.Load() {
				k := rng.Intn(keyRange)
				switch rng.Intn(3) {
				case 0:
					_ = th.Atomically(func(tx *stm.Tx) error { tree.Insert(tx, k, k); return nil })
				case 1:
					_ = th.Atomically(func(tx *stm.Tx) error { tree.Delete(tx, k); return nil })
				default:
					_ = th.Atomically(func(tx *stm.Tx) error { tree.Contains(tx, k); return nil })
				}
				ops.Add(1)
			}
		}()
	}
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	rep.TreeOps += ops.Load()
	st := sys.Stats()
	rep.Commits += st.Commits
	rep.Aborts += st.Aborts
	return tree.CheckInvariants()
}

// checkChurn: one long-lived client alternates transfers with audits while
// short-lived Threads register, run a few conflicting transfers and close, so
// Threads come and go in the middle of the long-lived client's attempts and
// those attempts flip between solo (at most one Thread registered, where the
// engine drives a lone client's commit itself) and shared. Every audit body
// checks the total it read — a torn read shows as a wrong sum even in an
// attempt that later aborts — and the final total is checked quiescently. It
// runs at every shard count the engine supports: 1, and 2 for RInval.
func checkChurn(algo stm.Algo, o Options, rep *Report) error {
	shards := []int{1}
	if algo == stm.RInvalV1 || algo == stm.RInvalV2 || algo == stm.RInvalV3 {
		shards = append(shards, 2)
	}
	for _, n := range shards {
		if err := churn(algo, n, o, rep); err != nil {
			return fmt.Errorf("shards=%d: %w", n, err)
		}
	}
	return nil
}

func churn(algo stm.Algo, shards int, o Options, rep *Report) error {
	sys, err := stm.New(stm.Config{
		Algo:         algo,
		MaxThreads:   o.Threads + 1,
		Shards:       shards,
		InvalServers: 2,
		Seed:         o.Seed,
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	const accounts, initial = 16, 100
	accs := make([]*stm.Var[int], accounts)
	for i := range accs {
		accs[i] = stm.NewVar(initial)
	}
	transfer := func(th *stm.Thread, rng *stamp.Rand) {
		from, to := rng.Intn(accounts), rng.Intn(accounts)
		amt := rng.Intn(20)
		_ = th.Atomically(func(tx *stm.Tx) error {
			accs[from].Store(tx, accs[from].Load(tx)-amt)
			accs[to].Store(tx, accs[to].Load(tx)+amt)
			return nil
		})
	}
	var stop atomic.Bool
	var torn atomic.Int64
	var audits, churns atomic.Uint64
	var wg sync.WaitGroup
	// Two churners at most, each absent for a random pause between lives, so
	// the long-lived client also runs alone.
	for c := 0; c < min(2, o.Threads-1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stamp.NewRand(o.Seed, uint64(c)+130)
			for !stop.Load() {
				th := sys.MustRegister()
				for i := rng.Intn(3); i >= 0; i-- {
					transfer(th, rng)
				}
				th.Close()
				churns.Add(1)
				time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := sys.MustRegister()
		defer th.Close()
		rng := stamp.NewRand(o.Seed, 170)
		for !stop.Load() {
			transfer(th, rng)
			_ = th.Atomically(func(tx *stm.Tx) error {
				total := 0
				for _, a := range accs {
					total += a.Load(tx)
				}
				if total != accounts*initial {
					torn.Add(1)
				}
				return nil
			})
			audits.Add(1)
		}
	}()
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	rep.Audits += audits.Load()
	rep.Churns += churns.Load()
	st := sys.Stats()
	rep.Commits += st.Commits
	rep.Aborts += st.Aborts
	if v := torn.Load(); v != 0 {
		return fmt.Errorf("%d audit bodies read a wrong total", v)
	}
	total := 0
	for _, a := range accs {
		total += a.Peek()
	}
	if total != accounts*initial {
		return fmt.Errorf("final total %d != %d", total, accounts*initial)
	}
	return nil
}
