// recv.go seeds guarded bugs in the inbound-registry shape: a striped
// connection set plus per-peer death accounting, the receive-side mirror
// of the outgoing channel table.
package bad

import "sync"

type conn struct{ addr string }

type recvStripe struct {
	mu     sync.Mutex //kmlint:guarded
	conns  map[*conn]struct{}
	deaths map[string]uint64
}

// registerRacy inserts an accepted connection without the stripe lock —
// the accept-path race striping is supposed to make cheap to avoid, not
// optional.
func registerRacy(s *recvStripe, c *conn) {
	s.conns[c] = struct{}{} // want "access to guarded field conns without holding s.mu"
}

// countDeathAfterUnlock is the teardown bug: membership is checked under
// the lock, but the death counter is bumped after the critical section,
// racing a concurrent Close that resets the map.
func countDeathAfterUnlock(s *recvStripe, c *conn) {
	s.mu.Lock()
	_, present := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if present {
		s.deaths[c.addr]++ // want "access to guarded field deaths without holding s.mu"
	}
}

// quiesceCollectsUnlocked is Close's shape done wrong: the stripe's
// connection set is iterated outside the critical section while read
// loops are still deregistering.
func quiesceCollectsUnlocked(stripes []*recvStripe) []*conn {
	var out []*conn
	for _, s := range stripes {
		for c := range s.conns { // want "access to guarded field conns without holding s.mu"
			out = append(out, c)
		}
	}
	return out
}
