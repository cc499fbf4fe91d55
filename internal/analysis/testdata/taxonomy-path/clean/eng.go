// Every path into a conflict exit records its reason first: directly in the
// failing branch, or by delegating to a helper that records on its own
// failure path (the may-set summary keeps the delegation idiom clean).
package eng

type Tx struct {
	reason int
}

type Var struct{}

type Box struct{}

type conflictSignal struct{}

// server commits for its clients, as a method of the commit's shape.
type server struct{}

func read(tx *Tx, v *Var) (*Box, bool) {
	if staleEpoch() {
		tx.reason = 1
		return nil, false
	}
	if !revalidate(tx) {
		return nil, false // revalidate recorded the reason
	}
	return &Box{}, true
}

func (e *server) commit(tx *Tx) bool {
	if doomed() {
		tx.reason = 2
		return false
	}
	return true
}

func revalidate(tx *Tx) bool {
	if doomed() {
		tx.reason = 3
		return false
	}
	return true
}

func raise(tx *Tx) {
	tx.reason = 4
	panic(conflictSignal{})
}

func staleEpoch() bool { return false }

func doomed() bool { return false }
