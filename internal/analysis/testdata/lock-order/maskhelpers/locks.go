// The engine's shape after the epoch routines were unified: every waiting
// acquisition goes through one ascending-mask helper, every multi-stream
// release through one descending helper, and a helping client try-locks its
// single stream. Callers of the helpers are checked like callers of the
// primitives: balanced on every path out.
package locks

import "math/bits"

type system struct{}

func (s *system) lockStream(i int)         {}
func (s *system) tryLockStream(i int) bool { return true }
func (s *system) unlockStream(i int)       {}

// lockStreams is the bulk-acquire helper: the ascending-mask idiom and
// nothing else.
func (s *system) lockStreams(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.lockStream(bits.TrailingZeros64(m))
	}
}

// unlockStreams is the bulk-release helper: highest set bit first.
func (s *system) unlockStreams(mask uint64) {
	for m := mask; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		s.unlockStream(j)
	}
}

// serveEpoch is the commit-server's entry: lock the mask, run, unlock.
func (s *system) serveEpoch(mask uint64, first int) bool {
	s.lockStreams(mask)
	replied := epoch(mask, first)
	s.unlockStreams(mask)
	return replied
}

// serveEpochDeferred releases through a deferred helper call.
func (s *system) serveEpochDeferred(mask uint64, first int) bool {
	s.lockStreams(mask)
	defer s.unlockStreams(mask)
	if first < 0 {
		return false // released by the defer
	}
	return epoch(mask, first)
}

// help is the client's entry: one stream, only if it is free right now.
func (s *system) help(mask uint64, first int) bool {
	if mask&(mask-1) != 0 {
		return false
	}
	j := bits.TrailingZeros64(mask)
	if !s.tryLockStream(j) {
		return false
	}
	replied := epoch(mask, first)
	s.unlockStream(j)
	return replied
}

func epoch(mask uint64, first int) bool { return mask != 0 && first >= 0 }
