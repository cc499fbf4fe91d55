// A conflict exit that forgets the reason: the abort is misattributed to
// whatever the previous attempt left behind.
package eng

type Tx struct {
	reason int
}

type Var struct{}

type Box struct{}

type conflictSignal struct{}

func read(tx *Tx, v *Var) (*Box, bool) {
	if conflicted() {
		return nil, false // want taxonomy-path
	}
	return &Box{}, true
}

func commit(tx *Tx) bool {
	tx.reason = 1
	return conflictedCommit()
}

func conflicted() bool { return false }

func conflictedCommit() bool { return true }
