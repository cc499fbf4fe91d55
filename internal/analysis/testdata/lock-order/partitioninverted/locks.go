// Inverted nesting: a stream lock acquired — waiting, trying, or through the
// mask helper — while a partition lock is held. An epoch driver waits for a
// partition's holder under its stream lock, so a partition holder that in
// turn wanted a stream could close the cycle.
package locks

import "math/bits"

type system struct{}

func (s *system) lockStream(i int)               {}
func (s *system) tryLockStream(i int) bool       { return true }
func (s *system) unlockStream(i int)             {}
func (s *system) tryLockPartition(j, k int) bool { return true }
func (s *system) unlockPartition(j, k int)       {}

func (s *system) lockStreams(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.lockStream(bits.TrailingZeros64(m))
	}
}

func (s *system) unlockStreams(mask uint64) {
	for m := mask; m != 0; {
		j := bits.Len64(m) - 1
		m &^= 1 << uint(j)
		s.unlockStream(j)
	}
}

func (s *system) waitsForStream(j, k int) {
	if s.tryLockPartition(j, k) {
		s.lockStream(j) // want lock-order
		s.unlockStream(j)
		s.unlockPartition(j, k)
	}
}

func (s *system) triesStream(j, k int) {
	if !s.tryLockPartition(j, k) {
		return
	}
	if s.tryLockStream(j) { // want lock-order
		s.unlockStream(j)
	}
	s.unlockPartition(j, k)
}

func (s *system) takesMask(mask uint64, k int) {
	if s.tryLockPartition(0, k) {
		s.lockStreams(mask) // want lock-order
		s.unlockStreams(mask)
		s.unlockPartition(0, k)
	}
}
