// Atomic operations and the gated clock-variable idiom are sanctioned on
// the hot path.
package hot

import (
	"sync/atomic"
	"time"
)

var clock func() time.Time = time.Now

// read is the fast path: one atomic load, clock reads only through the
// indirection.
//
//stm:hotpath
func read(p *uint64, timing bool) uint64 {
	if timing {
		_ = clock()
	}
	return atomic.LoadUint64(p)
}
