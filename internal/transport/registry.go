package transport

import (
	"math/rand"
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// registry is the endpoint's one table of outgoing channels, created
// lazily per (protocol, destination) (§II-B). The mutex guards every field
// declared after it. It is deliberately not striped: core's codec lanes
// already serialise the sends for one (protocol, destination), so only
// different destinations could ever meet here, and no workload keeps more
// than two outgoing channels per node.
type registry struct {
	mu       sync.Mutex //kmlint:guarded
	channels map[chanKey]*outChannel
	// fallbacks reroutes UDT destinations whose dial attempts were
	// exhausted to their TCP equivalent (port un-shifted by
	// UDTPortOffset) for the life of the endpoint.
	fallbacks map[string]string
	closed    bool
	// rng drives redial jitter for every channel; seeded from
	// Config.BackoffSeed so supervision schedules replay run to run.
	rng *rand.Rand
}

// jitter draws from the registry's seeded PRNG.
func (r *registry) jitter(n time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(n)))
}

// QueueTotals summarises the outgoing registry at one instant: how many
// channels are registered, how many messages sit queued across them, and
// the deepest single queue — the numbers the soak harness's
// bounded-queue invariant and the stats registry's gauges read.
type QueueTotals struct {
	Channels int
	Queued   int
	MaxDepth int
	// Drops sums the endpoint's queue-policy drops across all classes —
	// the coarse overload signal; DropStats has the per-class split.
	Drops PolicyDrops
}

// PolicyDrops counts queue-policy drops by reason. Counters are
// cumulative over the endpoint's life.
type PolicyDrops struct {
	// Full counts queue-pressure drops (rejected newest or evicted
	// oldest at MaxPendingPerPeer).
	Full uint64
	// Coalesced counts latest-value-wins replacements.
	Coalesced uint64
	// Expired counts deadline expiries.
	Expired uint64
}

// Total sums all reasons.
func (d PolicyDrops) Total() uint64 { return d.Full + d.Coalesced + d.Expired }

// DropTotals is the endpoint's queue-policy drop accounting, split per
// QoS class.
type DropTotals struct {
	PerClass [wire.NumClasses]PolicyDrops
}

// Sum collapses the per-class split.
func (t DropTotals) Sum() PolicyDrops {
	var s PolicyDrops
	for _, d := range t.PerClass {
		s.Full += d.Full
		s.Coalesced += d.Coalesced
		s.Expired += d.Expired
	}
	return s
}

// DropStats snapshots the endpoint's per-(class, reason) drop counters.
// Every increment corresponds to exactly one notify with *ErrDropped.
func (e *Endpoint) DropStats() DropTotals {
	var t DropTotals
	for c := 0; c < wire.NumClasses; c++ {
		t.PerClass[c] = PolicyDrops{
			Full:      e.dropCounts[c][DropQueueFull-1].Load(),
			Coalesced: e.dropCounts[c][DropCoalesced-1].Load(),
			Expired:   e.dropCounts[c][DropExpired-1].Load(),
		}
	}
	return t
}

// QueueStats walks the outgoing registry and sums queue depths. To keep
// the lock-order discipline (never nest the registry mutex and a channel
// mutex), the channel pointers are collected under the registry lock and
// the queues are measured after it is released; the result is a
// consistent-enough monitoring snapshot, not an atomic cut.
func (e *Endpoint) QueueStats() QueueTotals {
	e.reg.mu.Lock()
	chans := make([]*outChannel, 0, len(e.reg.channels))
	for _, c := range e.reg.channels {
		chans = append(chans, c)
	}
	e.reg.mu.Unlock()
	t := QueueTotals{Channels: len(chans), Drops: e.DropStats().Sum()}
	for _, c := range chans {
		c.mu.Lock()
		depth := len(c.queue)
		c.mu.Unlock()
		t.Queued += depth
		if depth > t.MaxDepth {
			t.MaxDepth = depth
		}
	}
	return t
}

// findChannel returns the registered channel for (proto, dest), or nil.
func (e *Endpoint) findChannel(proto wire.Transport, dest string) *outChannel {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.reg.channels[chanKey{proto: proto, dest: dest}]
}
