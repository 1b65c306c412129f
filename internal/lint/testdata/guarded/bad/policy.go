// policy.go pins how the guarded check walks a function today where the
// three held-lock checks (locksend, guarded, lockorder's facts) differ.
package bad

// waitArm: an arm that waits in `for {}` and leaves only by return still
// takes part in the merge after the if, so the access on the locked
// fall-through path is reported (lockorder's facts treat the loop as
// terminating; this finding is a false positive kept until the policies
// are unified).
func waitArm(s *shard, wait func() bool) {
	s.mu.Lock()
	if len(s.queue) == 0 {
		s.mu.Unlock()
		for {
			if wait() {
				return
			}
		}
	}
	s.queue = s.queue[1:] // want "access to guarded field queue without holding s.mu" "access to guarded field queue without holding s.mu"
	s.mu.Unlock()
}

// Case lists and deferred-call arguments are visited (locksend visits
// neither).
func caseWithoutLock(s *shard) int {
	switch {
	case len(s.queue) > 0: // want "access to guarded field queue without holding s.mu"
		return 1
	}
	return 0
}

func deferArgWithoutLock(s *shard) {
	defer use(len(s.queue)) // want "access to guarded field queue without holding s.mu"
}

func use(int) {}
