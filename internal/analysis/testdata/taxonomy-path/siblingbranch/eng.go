// The case a textual "some assignment precedes the exit" rule is blind to: a
// reason assignment in an earlier branch textually precedes the second
// conflict exit, but no execution path connects them — a transaction failing
// only the doom check aborts with a stale reason.
package eng

type Tx struct {
	reason int
}

type Var struct{}

type Box struct{}

type conflictSignal struct{}

func read(tx *Tx, v *Var) (*Box, bool) {
	if staleEpoch() {
		tx.reason = 1
		return nil, false
	}
	if doomed() {
		return nil, false // want taxonomy-path
	}
	return &Box{}, true
}

func commit(tx *Tx) bool {
	tx.reason = 2
	return false
}

func staleEpoch() bool { return false }

func doomed() bool { return false }
