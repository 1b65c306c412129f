package transport

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// The outgoing registry is lock-striped: channels for different peers live
// in different shards, so dial, send-enqueue, supervision transitions and
// teardown for different destinations never contend on one mutex — the
// multi-loop design Netty reaches with its EventLoopGroup, applied to the
// per-(protocol, destination) channel table. One shard holds the channel
// map, the UDT→TCP fallback table entries, and the redial-jitter PRNG for
// the peers that hash into it.

// sendShard is one stripe of the endpoint's outgoing registry. The mutex
// guards every field declared after it; Close quiesces shards in index
// order so shutdown stays deterministic.
type sendShard struct {
	mu       sync.Mutex //kmlint:guarded
	channels map[chanKey]*outChannel
	// fallbacks reroutes UDT destinations whose dial attempts were
	// exhausted to their TCP equivalent (port un-shifted by
	// UDTPortOffset) for the life of the endpoint. An entry lives in the
	// shard of its UDT (proto, dest) key; the TCP channel it points at
	// hashes independently.
	fallbacks map[string]string
	closed    bool
	// rng drives redial jitter for this shard's channels; seeded from
	// Config.BackoffSeed plus the shard index so supervision schedules
	// replay run to run without a global PRNG lock.
	rng *rand.Rand
}

// newSendShards builds the endpoint's stripes: N = max(8, GOMAXPROCS)
// rounded up to a power of two, so the hash masks instead of dividing.
func newSendShards(seed int64) []*sendShard {
	n := shardCount(runtime.GOMAXPROCS(0))
	shards := make([]*sendShard, n)
	for i := range shards {
		shards[i] = &sendShard{
			channels:  make(map[chanKey]*outChannel),
			fallbacks: make(map[string]string),
			rng:       rand.New(rand.NewSource(seed + int64(i))),
		}
	}
	return shards
}

// shardCount rounds max(8, procs) up to a power of two.
func shardCount(procs int) int {
	n := max(8, procs)
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// shardFor hashes (proto, dest) onto a stripe with FNV-1a.
func (e *Endpoint) shardFor(proto wire.Transport, dest string) *sendShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h = (h ^ uint32(proto)) * prime32
	for i := 0; i < len(dest); i++ {
		h = (h ^ uint32(dest[i])) * prime32
	}
	return e.shards[h&uint32(len(e.shards)-1)]
}

// jitter draws from the shard's seeded PRNG.
func (s *sendShard) jitter(n time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.rng.Int63n(int64(n)))
}

// numChannels counts registered outgoing channels across all shards.
func (e *Endpoint) numChannels() int {
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		n += len(s.channels)
		s.mu.Unlock()
	}
	return n
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
// the lock-order discipline (never nest a shard mutex and a channel
// mutex), each stripe's channel pointers are collected under the shard
// lock and the queues are measured after it is released; the result is a
// consistent-enough monitoring snapshot, not an atomic cut.
func (e *Endpoint) QueueStats() QueueTotals {
	var chans []*outChannel
	for _, s := range e.shards {
		s.mu.Lock()
		for _, c := range s.channels {
			chans = append(chans, c)
		}
		s.mu.Unlock()
	}
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
	s := e.shardFor(proto, dest)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.channels[chanKey{proto: proto, dest: dest}]
}
