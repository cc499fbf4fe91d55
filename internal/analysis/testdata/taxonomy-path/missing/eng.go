// A conflict exit that forgets the reason: the abort is misattributed to
// whatever the previous attempt left behind.
package eng

type Tx struct {
	reason int
}

type engine interface {
	read(tx *Tx) (int, bool)
	commit(tx *Tx) bool
}

type impl struct{}

func (e *impl) read(tx *Tx) (int, bool) {
	if conflicted() {
		return 0, false // want taxonomy-path
	}
	return 1, true
}

func (e *impl) commit(tx *Tx) bool {
	tx.reason = 1
	return conflictedCommit()
}

func conflicted() bool { return false }

func conflictedCommit() bool { return true }
