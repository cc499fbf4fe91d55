package core

// mutexEngine serializes entire atomic blocks under the System's global
// mutex — the paper's coarse-grained locking strawman (Figure 1(b)). The
// critical path is exactly: acquire lock, run body, publish writes, release.
// There are no conflicts and no aborts; writes are still buffered so that a
// user abort (fn returning an error) rolls back, keeping the API semantics
// identical across engines.
type mutexEngine struct {
	sys *System
}

func (e *mutexEngine) begin(tx *Tx) { e.sys.mu.Lock() }

func (e *mutexEngine) read(tx *Tx, v *Var) (*Box, bool) {
	// Unreachable: a direct attempt's loads bypass the engine. Kept total so
	// the engine satisfies the interface even if a future caller routes here.
	return v.loadBox(), true
}

func (e *mutexEngine) commit(tx *Tx) bool {
	if e.sys.nVers > 0 && tx.ws.len() > 0 {
		// Versioned write-back needs an odd epoch to stamp. The mutex engine
		// never touches the timestamp otherwise, so bracket the write-back
		// with an odd/even transition here, under the global lock — snapshot
		// readers then see mutex commits exactly as they see seqlock commits.
		e.sys.streams[0].ts.Add(1)
		e.sys.writeBack(tx.ws)
		e.sys.streams[0].ts.Add(1)
	} else {
		tx.ws.writeBack()
	}
	e.sys.mu.Unlock()
	return true
}

func (e *mutexEngine) abort(tx *Tx) { e.sys.mu.Unlock() }
