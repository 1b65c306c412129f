// Package clean holds the canonical lock patterns lockorder must stay
// quiet about: sequential sweeps, ascending lock-alls, deferred-unlock
// getters, acyclic two-class nesting, and Locked-suffix helpers.
package clean

import "sync"

type shard struct {
	mu sync.Mutex
	n  int
}

// sweep mirrors QueueStats: each channel's critical section closes
// before the next opens, so no two are ever held together.
func sweep(shards []*shard) {
	for _, s := range shards {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}

// quiesce mirrors closeInbound: an ascending slice sweep may accumulate
// stripes, because the acquisition order is provable.
func quiesce(shards []*shard) {
	for _, s := range shards {
		s.mu.Lock()
	}
	for _, s := range shards {
		s.mu.Unlock()
	}
}

// quiesceIndexed is the same sweep with an explicit ascending index.
func quiesceIndexed(shards []*shard) {
	for i := 0; i < len(shards); i++ {
		shards[i].mu.Lock()
	}
	for i := 0; i < len(shards); i++ {
		shards[i].mu.Unlock()
	}
}

type registry struct {
	mu sync.Mutex
	m  map[string]int
}

// get is the deferred-unlock getter: its critical section ends at
// return, before any caller takes its next lock.
func (r *registry) get(k string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[k]
}

// oneWay nests registry inside shard; with no reverse direction in the
// package the edge is acyclic and clean.
func oneWay(s *shard, r *registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = r.get("n")
}

// bumpLocked documents with its suffix that r.mu is already held; the
// facts layer seeds the assumption instead of inventing an acquisition.
func (r *registry) bumpLocked(k string) {
	r.m[k]++
}

func (r *registry) bump(k string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpLocked(k)
}
