// Package clean holds the corrected counterparts of the guarded
// fixtures plus the deliberate exemptions; the analyzer must stay silent
// on all of them.
package clean

import "sync"

type shard struct {
	mu       sync.Mutex //kmlint:guarded
	channels map[string]int
	queue    []int
}

// unmarked has the same shape but no marker: its containers follow some
// other discipline (single-threaded owner, scheduler guarantee) and are
// not the guarded check's business.
type unmarked struct {
	mu    sync.Mutex
	items []int
}

func unmarkedIsExempt(u *unmarked) int { return len(u.items) }

// lockedAccess is the contract: every touch inside the critical section.
func lockedAccess(s *shard, key string, v int) {
	s.mu.Lock()
	s.channels[key] = v
	s.queue = append(s.queue, v)
	s.mu.Unlock()
}

// deferredUnlock keeps the mutex held to the end of the function — the
// safe pattern, unlike locksend where the defer is what ends the hazard.
func deferredUnlock(s *shard, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.channels[key] + len(s.queue)
}

// copyOutThenUse snapshots under the lock and works on the copy.
func copyOutThenUse(s *shard) []int {
	s.mu.Lock()
	out := append([]int(nil), s.queue...)
	s.mu.Unlock()
	return out
}

// relockLoop is the codec sequencer's drain shape: the lock is dropped
// mid-loop and retaken before the guarded fields are touched again.
func relockLoop(s *shard) {
	s.mu.Lock()
	for {
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		v := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		use(v)
		s.mu.Lock()
	}
}

// drainLocked asserts the caller-holds-the-lock convention by its name
// and is exempt; its call sites are scanned instead.
func drainLocked(s *shard) {
	s.queue = s.queue[:0]
}

func callsLockedHelper(s *shard) {
	s.mu.Lock()
	drainLocked(s)
	s.mu.Unlock()
}

// goroutineLocksItself: a spawned literal takes the shard lock before
// touching guarded state.
func goroutineLocksItself(s *shard) {
	go func() {
		s.mu.Lock()
		s.queue = nil
		s.mu.Unlock()
	}()
}

func use(int) {}
