// Conflict exits that record a reason directly, or delegate to a helper
// that does through a result variable tested later (`ok := validate(tx)`,
// then `if !ok`): the call itself marks the path recorded.
package eng

type Tx struct {
	reason int
}

type Var struct{}

type Box struct{}

type conflictSignal struct{}

func read(tx *Tx, v *Var) (*Box, bool) {
	if conflicted() {
		tx.reason = 1
		return nil, false
	}
	return &Box{}, true
}

func commit(tx *Tx) bool {
	ok := validate(tx)
	if !ok {
		return false
	}
	return true
}

func validate(tx *Tx) bool {
	if conflicted() {
		tx.reason = 2
		return false
	}
	return true
}

func conflicted() bool { return false }
