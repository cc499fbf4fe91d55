package main

import (
	"fmt"

	"github.com/ssrg-vt/rinval/container/ds"
	"github.com/ssrg-vt/rinval/container/rbtree"
	"github.com/ssrg-vt/rinval/internal/stamp"
	"github.com/ssrg-vt/rinval/stm"
)

// A workload is one closed-loop input mix. Every client issues its next
// transaction only after the previous one returned; inputs are drawn from a
// seeded generator inside the benchmark, so the library sees only keys.
type workload struct {
	name    string
	clients int
	// opsPerTx is the number of op spans one attempt records, for sizing the
	// traced run's span buffers.
	opsPerTx int
	// build creates and populates the shared state on sys.
	build func(sys *stm.System, p plan, seed uint64) (instance, error)
}

// instance is one populated workload, used by one cell and then checked.
type instance interface {
	// client returns client i's step: one call draws the next operation from
	// rng and runs it as one transaction on th. rec is nil outside a traced
	// run. The step's transaction body is built once, so a step allocates
	// nothing of its own.
	client(i int, th *stm.Thread, rng *stamp.Rand, rec *recorder) func() error
	// check verifies the output invariants once every client has stopped.
	check() error
}

var workloads = []workload{
	{name: "rbtree_mix_c1", clients: 1, opsPerTx: 1, build: buildTree},
	{name: "commit_short_c1", clients: 1, opsPerTx: 4, build: buildBank},
	{name: "scan_ro_c1", clients: 1, opsPerTx: 1, build: buildScan},
	{name: "kv_contend_c2", clients: 2, opsPerTx: 4, build: buildKV},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// populate runs fn on a set-up thread of sys.
func populate(sys *stm.System, fn func(th *stm.Thread) error) error {
	th := sys.MustRegister() // MaxThreads leaves a slot for set-up
	defer th.Close()
	return fn(th)
}

// rbtree_mix_c1: the paper's Fig. 7(a) micro-benchmark — a red-black tree
// over p.treeKeys keys, half of them present, 50 % Contains / 25 % Insert /
// 25 % Delete.
type treeInst struct {
	tree   *rbtree.Tree
	keys   int
	filled int
	net    []int // per client: successful inserts − successful deletes
}

func buildTree(sys *stm.System, p plan, seed uint64) (instance, error) {
	t := &treeInst{tree: rbtree.New(), keys: p.treeKeys, filled: p.treeKeys / 2, net: make([]int, 1)}
	present := stamp.NewRand(seed, 1000).Perm(t.keys)[:t.filled]
	err := populate(sys, func(th *stm.Thread) error {
		for _, k := range present {
			if err := th.Atomically(func(tx *stm.Tx) error {
				t.tree.Insert(tx, k, k)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return t, err
}

func (t *treeInst) client(i int, th *stm.Thread, rng *stamp.Rand, rec *recorder) func() error {
	var key, op int
	var changed bool
	body := func(tx *stm.Tx) error {
		a := rec.begin(spanAttempt)
		defer rec.end(a)
		switch {
		case op < 50:
			o := rec.begin(opContains)
			t.tree.Contains(tx, key)
			rec.end(o)
		case op < 75:
			o := rec.begin(opInsert)
			changed = t.tree.Insert(tx, key, key)
			rec.end(o)
		default:
			o := rec.begin(opDelete)
			changed = t.tree.Delete(tx, key)
			rec.end(o)
		}
		return nil
	}
	return func() error {
		key, op, changed = rng.Intn(t.keys), rng.Intn(100), false
		s := rec.begin(spanTx)
		err := th.Atomically(body)
		rec.end(s)
		if err == nil && changed {
			if op < 75 {
				t.net[i]++
			} else {
				t.net[i]--
			}
		}
		return err
	}
}

func (t *treeInst) check() error {
	if err := t.tree.CheckInvariants(); err != nil {
		return fmt.Errorf("rbtree invariants: %w", err)
	}
	want := t.filled
	for _, n := range t.net {
		want += n
	}
	if got := t.tree.SizeQuiescent(); got != want {
		return fmt.Errorf("rbtree size %d, want %d (populated + inserts − deletes)", got, want)
	}
	return nil
}

// commit_short_c1: 1024 accounts, each transaction moves an amount between
// two of them (2 Load + 2 Store), so the commit path is nearly all the work.
const (
	bankAccounts = 1024
	bankInitial  = 1000
)

type bankInst struct {
	accounts []*stm.Var[int]
}

func buildBank(*stm.System, plan, uint64) (instance, error) {
	b := &bankInst{accounts: make([]*stm.Var[int], bankAccounts)}
	for i := range b.accounts {
		b.accounts[i] = stm.NewVar(bankInitial)
	}
	return b, nil
}

func (b *bankInst) client(_ int, th *stm.Thread, rng *stamp.Rand, rec *recorder) func() error {
	var from, to *stm.Var[int]
	var amount int
	body := func(tx *stm.Tx) error {
		a := rec.begin(spanAttempt)
		defer rec.end(a)
		o := rec.begin(opLoad)
		f := from.Load(tx)
		rec.end(o)
		o = rec.begin(opLoad)
		t := to.Load(tx)
		rec.end(o)
		o = rec.begin(opStore)
		from.Store(tx, f-amount)
		rec.end(o)
		o = rec.begin(opStore)
		to.Store(tx, t+amount)
		rec.end(o)
		return nil
	}
	return func() error {
		i := rng.Intn(bankAccounts)
		j := (i + 1 + rng.Intn(bankAccounts-1)) % bankAccounts
		from, to, amount = b.accounts[i], b.accounts[j], 1+rng.Intn(10)
		s := rec.begin(spanTx)
		err := th.Atomically(body)
		rec.end(s)
		return err
	}
}

func (b *bankInst) check() error {
	sum := 0
	for _, a := range b.accounts {
		sum += a.Peek()
	}
	if want := bankAccounts * bankInitial; sum != want {
		return fmt.Errorf("account sum %d, want %d", sum, want)
	}
	return nil
}

// scan_ro_c1: 4096 Vars, each transaction loads 64 consecutive ones and
// stores nothing, so the read path is all the work and the commit-server is
// never asked.
const (
	scanVars = 4096
	scanLen  = 64
)

type scanInst struct {
	vars   []*stm.Var[int]
	prefix []int // prefix[i] = sum of the first i values
	wrong  []int // per client: scans whose sum was not the expected one
}

func buildScan(_ *stm.System, _ plan, seed uint64) (instance, error) {
	s := &scanInst{vars: make([]*stm.Var[int], scanVars), prefix: make([]int, scanVars+1), wrong: make([]int, 1)}
	rng := stamp.NewRand(seed, 1000)
	for i := range s.vars {
		v := rng.Intn(1 << 20)
		s.vars[i] = stm.NewVar(v)
		s.prefix[i+1] = s.prefix[i] + v
	}
	return s, nil
}

func (s *scanInst) client(i int, th *stm.Thread, rng *stamp.Rand, rec *recorder) func() error {
	var base int
	body := func(tx *stm.Tx) error {
		a := rec.begin(spanAttempt)
		defer rec.end(a)
		o := rec.begin(opScan)
		sum := 0
		for _, v := range s.vars[base : base+scanLen] {
			sum += v.Load(tx)
		}
		rec.end(o)
		if sum != s.prefix[base+scanLen]-s.prefix[base] {
			s.wrong[i]++
		}
		return nil
	}
	return func() error {
		base = rng.Intn(scanVars - scanLen + 1)
		t := rec.begin(spanTx)
		err := th.Atomically(body)
		rec.end(t)
		return err
	}
}

func (s *scanInst) check() error {
	sum := 0
	for _, v := range s.vars {
		sum += v.Peek()
	}
	if sum != s.prefix[scanVars] {
		return fmt.Errorf("scan vars sum %d after a read-only run, want %d", sum, s.prefix[scanVars])
	}
	for c, n := range s.wrong {
		if n > 0 {
			return fmt.Errorf("client %d: %d scans summed to an unexpected value", c, n)
		}
	}
	return nil
}

// kv_contend_c2: a 16-bucket ds.Map holding 64 keys in 32 pairs. 90 % of the
// transactions move an amount between the two keys of a random pair
// (2 Get + 2 Put), 10 % audit a pair's sum. Two clients, so the commit and
// invalidation layers see real conflicts, dooms, aborts and backoff.
const (
	kvBuckets = 16
	kvPairs   = 32
	kvInitial = 1000
)

type kvInst struct {
	m     *ds.Map[int, int]
	wrong []int // per client: audits that saw a broken pair sum
}

func buildKV(sys *stm.System, _ plan, _ uint64) (instance, error) {
	k := &kvInst{m: ds.NewMap[int, int](kvBuckets, ds.HashInt), wrong: make([]int, 2)}
	err := populate(sys, func(th *stm.Thread) error {
		return th.Atomically(func(tx *stm.Tx) error {
			for key := 0; key < 2*kvPairs; key++ {
				k.m.Put(tx, key, kvInitial)
			}
			return nil
		})
	})
	return k, err
}

func (k *kvInst) client(i int, th *stm.Thread, rng *stamp.Rand, rec *recorder) func() error {
	var pair, amount int
	var audit bool
	body := func(tx *stm.Tx) error {
		a := rec.begin(spanAttempt)
		defer rec.end(a)
		o := rec.begin(opGet)
		x, _ := k.m.Get(tx, 2*pair)
		rec.end(o)
		o = rec.begin(opGet)
		y, _ := k.m.Get(tx, 2*pair+1)
		rec.end(o)
		if audit {
			if x+y != 2*kvInitial {
				k.wrong[i]++
			}
			return nil
		}
		o = rec.begin(opPut)
		k.m.Put(tx, 2*pair, x-amount)
		rec.end(o)
		o = rec.begin(opPut)
		k.m.Put(tx, 2*pair+1, y+amount)
		rec.end(o)
		return nil
	}
	return func() error {
		pair, audit, amount = rng.Intn(kvPairs), rng.Intn(10) == 0, 1+rng.Intn(10)
		s := rec.begin(spanTx)
		err := th.Atomically(body)
		rec.end(s)
		return err
	}
}

func (k *kvInst) check() error {
	vals := make(map[int]int, 2*kvPairs)
	k.m.ForEachQuiescent(func(key, val int) { vals[key] = val })
	if len(vals) != 2*kvPairs {
		return fmt.Errorf("map holds %d keys, want %d", len(vals), 2*kvPairs)
	}
	for p := 0; p < kvPairs; p++ {
		if sum := vals[2*p] + vals[2*p+1]; sum != 2*kvInitial {
			return fmt.Errorf("pair %d sums to %d, want %d", p, sum, 2*kvInitial)
		}
	}
	for c, n := range k.wrong {
		if n > 0 {
			return fmt.Errorf("client %d: %d audits saw a broken pair sum", c, n)
		}
	}
	return nil
}
