// The engine contract has no read method: the attempt's kind picks a plain
// read function, which the load path calls without the interface. Such a
// function is matched by its shape, func(tx *Tx, v *Var) (*Box, bool), and its
// false returns are conflict exits like a commit's: the one that skips the
// reason aborts with whatever the previous attempt left behind.
package eng

type Tx struct {
	reason int
	snap   uint64
}

type Var struct {
	ts uint64
}

type Box struct{}

type engine interface {
	begin(tx *Tx)
	commit(tx *Tx) bool
	abort(tx *Tx)
}

type impl struct{}

func (e *impl) begin(tx *Tx) {}

func (e *impl) commit(tx *Tx) bool {
	tx.reason = 1
	return false
}

func (e *impl) abort(tx *Tx) {}

func snapshotRead(tx *Tx, v *Var) (*Box, bool) {
	if v.ts != tx.snap {
		tx.reason = 2
		return nil, false
	}
	if locked(v) {
		return nil, false // want taxonomy-path
	}
	return &Box{}, true
}

// peek has another shape: not a read, so its false return is no exit.
func peek(v *Var) (*Box, bool) {
	if locked(v) {
		return nil, false
	}
	return &Box{}, true
}

func locked(v *Var) bool { return v.ts&1 == 1 }
