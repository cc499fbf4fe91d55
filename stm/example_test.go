package stm_test

import (
	"errors"
	"fmt"
	"sync"

	"github.com/ssrg-vt/rinval/stm"
)

// Transfers between two accounts are atomic: no interleaving can observe or
// produce a state where money is created or destroyed.
func ExampleThread_Atomically() {
	sys := stm.MustNew(stm.Config{Algo: stm.RInvalV1, MaxThreads: 4})
	defer sys.Close()

	checking := stm.NewVar(100)
	savings := stm.NewVar(0)

	th := sys.MustRegister()
	defer th.Close()
	_ = th.Atomically(func(tx *stm.Tx) error {
		amount := 40
		checking.Store(tx, checking.Load(tx)-amount)
		savings.Store(tx, savings.Load(tx)+amount)
		return nil
	})
	fmt.Println(checking.Peek(), savings.Peek())
	// Output: 60 40
}

// Returning an error aborts the transaction: buffered writes are discarded
// and the error is handed back to the caller.
func ExampleThread_Atomically_abort() {
	sys := stm.MustNew(stm.Config{Algo: stm.NOrec, MaxThreads: 2, InvalServers: 1})
	defer sys.Close()

	balance := stm.NewVar(10)
	errInsufficient := errors.New("insufficient funds")

	th := sys.MustRegister()
	defer th.Close()
	err := th.Atomically(func(tx *stm.Tx) error {
		b := balance.Load(tx)
		if b < 50 {
			return errInsufficient
		}
		balance.Store(tx, b-50)
		return nil
	})
	fmt.Println(err, balance.Peek())
	// Output: insufficient funds 10
}

// Modify is the read-modify-write idiom in one call; under contention the
// whole transaction retries until the update applies atomically.
func ExampleVar_Modify() {
	sys := stm.MustNew(stm.Config{Algo: stm.RInvalV2, MaxThreads: 8, InvalServers: 2})
	defer sys.Close()

	hits := stm.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := sys.MustRegister()
			defer th.Close()
			for i := 0; i < 250; i++ {
				_ = th.Atomically(func(tx *stm.Tx) error {
					hits.Modify(tx, func(h int) int { return h + 1 })
					return nil
				})
			}
		}()
	}
	wg.Wait()
	fmt.Println(hits.Peek())
	// Output: 1000
}

// Engines are interchangeable behind one API; pick by name at runtime.
func ExampleParseAlgo() {
	algo, err := stm.ParseAlgo("rinval-v2")
	if err != nil {
		panic(err)
	}
	sys := stm.MustNew(stm.Config{Algo: algo, MaxThreads: 4})
	defer sys.Close()
	fmt.Println(sys.Algo())
	// Output: rinval-v2
}

// A struct that holds its Vars by value is one allocation: InitVar
// initializes each zero Var in place. The struct must not be copied after.
func ExampleInitVar() {
	type account struct {
		owner   string
		balance stm.Var[int]
		frozen  stm.Var[bool]
	}
	open := func(owner string, balance int) *account {
		a := &account{owner: owner}
		stm.InitVar(&a.balance, balance)
		stm.InitVar(&a.frozen, false)
		return a
	}

	sys := stm.MustNew(stm.Config{Algo: stm.NOrec})
	defer sys.Close()
	th := sys.MustRegister()
	defer th.Close()

	a := open("ada", 100)
	_ = th.Atomically(func(tx *stm.Tx) error {
		if !a.frozen.Load(tx) {
			a.balance.Store(tx, a.balance.Load(tx)-30)
		}
		return nil
	})
	fmt.Println(a.owner, a.balance.Peek())
	// Output: ada 70
}
