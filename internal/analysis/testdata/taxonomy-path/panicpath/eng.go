// A conflictSignal raised with the reason recorded on only one of the two
// inbound paths: the skip-branch reaches the panic with whatever reason the
// previous attempt left behind.
package eng

type Tx struct {
	reason int
}

type Var struct{}

type Box struct{}

type conflictSignal struct{}

func read(tx *Tx, v *Var) (*Box, bool) {
	if doomed() {
		tx.reason = 1
		return nil, false
	}
	return &Box{}, true
}

func commit(tx *Tx) bool {
	if doomed() {
		tx.reason = 2
		return false
	}
	return true
}

func scanAbort(tx *Tx, sampled bool) {
	if sampled {
		tx.reason = 3
	}
	panic(conflictSignal{}) // want taxonomy-path
}

func doomed() bool { return false }
