// policy.go pins how lockorder's fact extraction walks a function today
// where the three held-lock checks (locksend, guarded, lockorder's facts)
// differ. Some shapes below are blind spots rather than safe code; they
// stay silent here until the checks' walking policies are unified on
// purpose. oneWay (clean.go) is the shard→registry edge each of them
// would close into a cycle.
package clean

// getThenLock: get's deferred unlock keeps registry.mu out of its
// HeldAtExit, so the shard lock after the call adds no edge.
func getThenLock(r *registry, s *shard) {
	_ = r.get("k")
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// serve holds r.mu across iterations and leaves only by return: a `for
// {}` without a break never falls through, so no normal exit holds r.mu
// and serveThenLock adds no registry→shard edge.
func (r *registry) serve(stop func() bool) {
	r.mu.Lock()
	for {
		if stop() {
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		r.mu.Lock()
	}
}

func serveThenLock(r *registry, s *shard, stop func() bool) {
	r.serve(stop)
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *shard) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// lhsNotVisited: calls in an assignment's left-hand side are not walked.
func lhsNotVisited(r *registry, s *shard, vals []int) {
	r.mu.Lock()
	vals[s.count()] = 1
	r.mu.Unlock()
}

// deferredAcquiresNoEdge: a deferred call's own acquisitions count as
// Acquires without edges, since the held set at exit is not known.
func deferredAcquiresNoEdge(r *registry, s *shard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer s.count()
}
