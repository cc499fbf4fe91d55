// Conflict exits that record a reason directly, or delegate to a helper
// that does through a result variable tested later (`ok := e.validate(tx)`,
// then `if !ok`): the call itself marks the path recorded.
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
		tx.reason = 1
		return 0, false
	}
	return 1, true
}

func (e *impl) commit(tx *Tx) bool {
	ok := e.validate(tx)
	if !ok {
		return false
	}
	return true
}

func (e *impl) validate(tx *Tx) bool {
	if conflicted() {
		tx.reason = 2
		return false
	}
	return true
}

func conflicted() bool { return false }
