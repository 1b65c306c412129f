// policy.go pins how the guarded check walks a function today where the
// three held-lock checks (locksend, guarded, lockorder's facts) differ.
// Some shapes below are blind spots rather than safe code; they stay
// silent here until the checks' walking policies are unified on purpose.
package clean

import "sync"

type link struct {
	mu    sync.Mutex //kmlint:guarded
	items []int
	next  *link
}

// handOverHand walks a list holding at most two node locks, taking the
// next before releasing the current. A loop body is scanned once, with the
// state at loop entry, so cur.items is checked against cur.mu (a second
// pass with the loop-carried nxt.mu held, as lockorder's facts make,
// would not see cur.mu).
func handOverHand(head *link) int {
	n := 0
	cur := head
	cur.mu.Lock()
	for cur.next != nil {
		n += len(cur.items)
		nxt := cur.next
		nxt.mu.Lock()
		cur.mu.Unlock()
		cur = nxt
	}
	cur.mu.Unlock()
	return n
}

// commUnchecked: select comm statements are not visited.
func commUnchecked(s *shard, out chan int) {
	select {
	case out <- len(s.queue):
	default:
	}
}

// flushLocked: a ...Locked function is skipped whole, its literals too.
func flushLocked(s *shard) {
	go func() {
		s.queue = nil
	}()
}
