// The case a textual "some assignment precedes the exit" rule is blind to: a
// reason assignment in an earlier branch textually precedes the second
// conflict exit, but no execution path connects them — a transaction failing
// only the doom check aborts with a stale reason.
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
	if staleEpoch() {
		tx.reason = 1
		return 0, false
	}
	if doomed() {
		return 0, false // want taxonomy-path
	}
	return 1, true
}

func (e *impl) commit(tx *Tx) bool {
	tx.reason = 2
	return false
}

var _ = conflictSignal{}

func staleEpoch() bool { return false }

func doomed() bool { return false }
