// The partition try-lock, one tier below the stream lock: whoever finds an
// invalidation partition lagging and free takes it, applies the outstanding
// descriptors and lets go. It nests under a stream lock (an epoch driver
// scanning during catch-up or after its reply) and never the other way round.
package locks

type system struct{ ts, invalTS []uint64 }

func (s *system) lockStream(i int)                 {}
func (s *system) unlockStream(i int)               {}
func (s *system) tryLockPartition(j, k int) bool   { return true }
func (s *system) unlockPartition(j, k int)         {}
func (s *system) invalidatePartition(k int) uint64 { return 0 }

// scanPartition is the engine's shape: a cheap lag test first, the lock held
// in the then-branch only, released before the single return under it.
func (s *system) scanPartition(j, k int) bool {
	if s.ts[j] > s.invalTS[k] && s.tryLockPartition(j, k) {
		for my := s.invalTS[k]; s.ts[j] > my; my += 2 {
			s.invalidatePartition(k)
			s.invalTS[k] = my + 2
		}
		s.unlockPartition(j, k)
		return true
	}
	return false
}

// scanGuard is the guard form with a deferred release.
func (s *system) scanGuard(j, k int) uint64 {
	if !s.tryLockPartition(j, k) {
		return 0
	}
	defer s.unlockPartition(j, k)
	if s.ts[j] <= s.invalTS[k] {
		return 0 // released by the defer
	}
	return s.invalidatePartition(k)
}

// catchUp is the legal nesting: the stream lock first, then each free
// partition in turn, each released before the next and before the stream.
func (s *system) catchUp(j int) {
	s.lockStream(j)
	for k := range s.invalTS {
		if s.tryLockPartition(j, k) {
			s.invalidatePartition(k)
			s.unlockPartition(j, k)
		}
	}
	s.unlockStream(j)
}
