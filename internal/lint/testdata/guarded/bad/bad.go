// Package bad seeds the guarded class: reads and writes of a marked
// shard's containers without holding the shard's mutex.
package bad

import "sync"

type shard struct {
	mu       sync.Mutex //kmlint:guarded
	channels map[string]int
	queue    []int
}

func readWithoutLock(s *shard, key string) int {
	return s.channels[key] // want "access to guarded field channels without holding s.mu"
}

func writeWithoutLock(s *shard, key string) {
	s.channels[key] = 1 // want "access to guarded field channels without holding s.mu"
}

// appendAfterUnlock is the classic shard bug: the critical section ends
// one statement too early.
func appendAfterUnlock(s *shard, v int) {
	s.mu.Lock()
	n := len(s.queue)
	s.mu.Unlock()
	if n < 64 {
		s.queue = append(s.queue, v) // want "access to guarded field queue without holding s.mu" "access to guarded field queue without holding s.mu"
	}
}

// earlyExitStillUnlocked mirrors locksend's merge regression the other way
// round: the lock is only taken in one branch, so the fall-through access
// is unguarded.
func earlyExitStillUnlocked(s *shard, fast bool) {
	if !fast {
		s.mu.Lock()
	}
	delete(s.channels, "x") // want "access to guarded field channels without holding s.mu"
	if !fast {
		s.mu.Unlock()
	}
}

// wrongShard locks one stripe and touches another — exactly the aliasing
// mistake striping introduces.
func wrongShard(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.queue = nil // want "access to guarded field queue without holding b.mu"
}

// goroutineEscapes: the literal runs without the spawner's lock.
func goroutineEscapes(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.queue = s.queue[:0] // want "access to guarded field queue without holding s.mu" "access to guarded field queue without holding s.mu"
	}()
}

// rangeWithoutLock iterates a guarded map lock-free.
func rangeWithoutLock(s *shard) int {
	n := 0
	for _, v := range s.channels { // want "access to guarded field channels without holding s.mu"
		n += v
	}
	return n
}
