// A read-only snapshot fallback beside a real conflict exit. The check
// matches conflict exits by the panic argument's type name: raising
// conflictSignal without recording tx.reason is a taxonomy hole, while
// raising roFallbackSignal is not a conflict abort at all — the snapshot
// reader re-runs on the regular path and no reason applies — so the fallback
// panic needs no recording and must stay clean.
package eng

type Tx struct {
	reason int
}

type Var struct{}

type Box struct{}

type conflictSignal struct{}

type roFallbackSignal struct{}

func read(tx *Tx, v *Var) (*Box, bool) {
	if doomed() {
		tx.reason = 1
		return nil, false
	}
	return &Box{}, true
}

func commit(tx *Tx) bool {
	if doomed() {
		return false // want taxonomy-path
	}
	return true
}

// loadSnapshot is the RO hot-path read: a missing version is a fallback, not
// a conflict, so the panic carries roFallbackSignal and records nothing.
func loadSnapshot(tx *Tx, ok bool) int {
	if !ok {
		panic(roFallbackSignal{})
	}
	return 1
}

func doomed() bool { return false }
