// A commit the attempt's kind picks is a plain function, called by the commit
// path without an interface. It is matched by its shape — sole parameter *Tx,
// sole result bool — so its bare `return false` is a conflict exit, while a
// function of another shape (lockStream) returns false freely.
package eng

type Tx struct {
	reason int
	ts     uint64
}

type conflictSignal struct{}

func lockedCommit(tx *Tx) bool {
	if !lockStream(tx, 0) {
		return false // want taxonomy-path
	}
	return true
}

// lockStream has two parameters: not a commit, so its false return is no exit.
func lockStream(tx *Tx, j int) bool {
	if tx.ts&1 == 1 {
		return false
	}
	tx.ts++
	return true
}
