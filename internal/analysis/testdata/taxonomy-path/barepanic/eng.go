// The long-jump abort path (panic(conflictSignal{})) also needs a reason
// recorded first.
package eng

type Tx struct {
	reason int
}

type conflictSignal struct{}

type engine interface {
	read(tx *Tx) (int, bool)
	commit(tx *Tx) bool
}

type impl struct{}

func (e *impl) read(tx *Tx) (int, bool) {
	if conflicted() {
		panic(conflictSignal{}) // want taxonomy-path
	}
	return 1, true
}

func (e *impl) commit(tx *Tx) bool {
	tx.reason = 1
	return false
}

func conflicted() bool { return false }
