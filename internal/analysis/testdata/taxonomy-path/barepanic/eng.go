// The long-jump abort path (panic(conflictSignal{})) also needs a reason
// recorded first.
package eng

type Tx struct {
	reason int
}

type Var struct{}

type Box struct{}

type conflictSignal struct{}

func read(tx *Tx, v *Var) (*Box, bool) {
	if conflicted() {
		panic(conflictSignal{}) // want taxonomy-path
	}
	return &Box{}, true
}

func commit(tx *Tx) bool {
	tx.reason = 1
	return false
}

func conflicted() bool { return false }
