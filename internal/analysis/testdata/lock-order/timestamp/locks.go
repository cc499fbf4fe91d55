// The timestamp lock of an inline commit: every touched stream's timestamp is
// raised odd in ascending order by a bool-returning helper (false: aborted,
// nothing held), and lowered in the descending walk. Taking the timestamps
// highest first, lowering them lowest first, or ignoring which side of the
// helper's result holds them is reported.
package locks

import "math/bits"

type system struct{}

func (s *system) lockTimestamp(j int) uint64        { return 0 }
func (s *system) unlockTimestamp(wrote bool, j int) {}
func (s *system) validate(snap uint64, j int) bool  { return snap != 0 && j >= 0 }
func (s *system) writeBack(touched, writes uint64)  {}

// lockTouched is the bulk try-acquire helper: the ascending-mask idiom with
// the index in a variable, and a bulk release on its failure path.
func (s *system) lockTouched(touched uint64) bool {
	ok := true
	for m := touched; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if !s.validate(s.lockTimestamp(j), j) {
			ok = false
		}
	}
	if !ok {
		s.releaseTouched(touched, 0)
	}
	return ok
}

// releaseTouched is the bulk-release helper: highest set bit first.
func (s *system) releaseTouched(touched, writes uint64) {
	for m := touched; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		s.unlockTimestamp(writes&(1<<uint(j)) != 0, j)
	}
}

// commit is the engine's shape: held only where lockTouched succeeded.
func (s *system) commit(touched, writes uint64) bool {
	if !s.lockTouched(touched) {
		return false
	}
	s.writeBack(touched, writes)
	s.releaseTouched(touched, writes)
	return true
}

// commitUnchecked keeps the result but does not test it in an if: which
// paths hold the timestamps is unknowable.
func (s *system) commitUnchecked(touched uint64) bool {
	ok := s.lockTouched(touched) // want lock-order
	s.releaseTouched(touched, 0)
	return ok
}

// lockTouchedDown takes the timestamps highest first: two committers over
// overlapping masks, one of them ascending, can each hold what the other
// waits for.
func (s *system) lockTouchedDown(touched uint64) {
	for m := touched; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		s.lockTimestamp(j) // want lock-order
	}
	s.releaseTouched(touched, 0)
}

// releaseUp lowers the timestamps lowest first: the lowest stream's odd
// window no longer encloses the others.
func (s *system) releaseUp(touched uint64) {
	for m := touched; m != 0; m &= m - 1 {
		s.unlockTimestamp(false, bits.TrailingZeros64(m)) // want lock-order
	}
}
