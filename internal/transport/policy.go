package transport

import (
	"fmt"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// Overload control. A channel's messages wait in one pendingQueue while
// the channel connects or redials (§III-C), bounded at
// MaxPendingPerPeer. What happens to a message is decided by its own
// wire.QoS annotation, not by a channel-wide setting:
//
//   - a message whose deadline has already passed is shed as DropExpired;
//   - a keyed message replaces the queued message with the same
//     (class, key) in place, and the replaced one is shed as
//     DropCoalesced;
//   - at the limit, messages past their deadline are swept out first,
//     and an arrival that still does not fit is rejected (DropQueueFull);
//   - at dequeue, messages past their deadline are swept out.
//
// A message with zero QoS is appended, or rejected at the limit; nothing
// else. Contract:
//
//   - The methods run under the channel mutex and must not block, call
//     notify, or touch bufpool. Shed messages are *returned*, never
//     released inline — release runs a user callback and a pool Put,
//     which must happen outside the lock. The returned dropped slice is
//     scratch owned by the queue: the caller consumes it before the next
//     call under the same lock.
//   - FIFO per (peer, class, key), with "" for unkeyed messages: the
//     queue removes messages or replaces one in place, but never
//     reorders survivors.
//   - Exactly-once accounting: every message either survives to the
//     batch writer or comes back exactly once as dropped (and is then
//     released with a typed *ErrDropped through notify, charged to the
//     endpoint's per-class drop counters).

// DropReason says why the pending queue dropped a message.
type DropReason uint8

const (
	// DropQueueFull is queue pressure: the pending queue was at
	// MaxPendingPerPeer and the arriving message did not fit.
	DropQueueFull DropReason = iota + 1
	// DropCoalesced is latest-value-wins shedding: a newer update for
	// the same (class, key) replaced this queued one.
	DropCoalesced
	// DropExpired is deadline shedding: the message's QoS deadline
	// passed before it reached the wire.
	DropExpired

	// numDropReasons sizes per-reason accounting arrays.
	numDropReasons = 3
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropCoalesced:
		return "coalesced"
	case DropExpired:
		return "expired"
	default:
		return fmt.Sprintf("DropReason(%d)", uint8(r))
	}
}

// ErrDropped is the typed error every pending-queue drop reports through
// notify, so at-most-once accounting upstream (the DATA interceptor, the
// codec stage, application notify handlers) can tell an overload shed
// from a wire failure and react per reason.
type ErrDropped struct {
	// Reason says why the message was shed.
	Reason DropReason
	// Class is the dropped message's QoS class.
	Class wire.Class
	// Proto and Dest identify the channel that shed it.
	Proto wire.Transport
	Dest  string
	// Limit is the channel's MaxPendingPerPeer bound.
	Limit int
}

// Error implements error.
func (e *ErrDropped) Error() string {
	switch e.Reason {
	case DropCoalesced:
		return fmt.Sprintf("transport: %s message dropped (newer update coalesced over it): %v to %s",
			e.Class, e.Proto, e.Dest)
	case DropExpired:
		return fmt.Sprintf("transport: %s message dropped (deadline expired): %v to %s",
			e.Class, e.Proto, e.Dest)
	default:
		return fmt.Sprintf("%v: %v: %d pending to %s", ErrQueueFull, e.Proto, e.Limit, e.Dest)
	}
}

// Unwrap ties queue-pressure drops into the fail-fast error contract:
// errors.Is(err, ErrQueueFull) reports overflow. Coalesced and expired
// drops are not queue pressure and unwrap to nothing.
func (e *ErrDropped) Unwrap() error {
	if e.Reason == DropQueueFull {
		return ErrQueueFull
	}
	return nil
}

// dropped pairs a displaced message with why it was displaced.
type dropped struct {
	msg    outMsg
	reason DropReason
}

// coalesceKey scopes coalescing to (class, key): replacing a queued
// telemetry update with a later control message sharing its key would
// teleport the control message to the telemetry message's queue position,
// breaking per-(peer, class) FIFO.
type coalesceKey struct {
	class wire.Class
	key   string
}

// pendingQueue is one channel's queue of messages waiting for the wire.
// The channel guards it with its mutex.
type pendingQueue struct {
	msgs  []outMsg
	limit int
	// idx maps the (class, key) of each queued keyed message to its
	// position in msgs. Replacement and append keep positions; a sweep
	// compacts msgs and so rebuilds idx from the survivors.
	idx map[coalesceKey]int
	// deadlines counts queued messages that carry a deadline. While it
	// is zero nothing queued can expire, and the channel does not read
	// the clock.
	deadlines int
	scratch   []dropped
}

// expired reports whether m's deadline passed by now (0 = no deadline).
func expired(m outMsg, now int64) bool {
	return m.qos.Deadline != 0 && m.qos.Deadline <= now
}

// sweepsAtLimit reports whether a push now would sweep for expired
// messages, and so needs the time even for an arrival without a deadline.
func (p *pendingQueue) sweepsAtLimit() bool {
	return p.deadlines > 0 && len(p.msgs) >= p.limit
}

// push admits m, returning the messages it displaced (scratch; consume
// before the next call) and whether m was handled. ok=false means m was
// rejected at the limit and the caller charges it as DropQueueFull; a
// message shed for any other reason comes back through displaced. now is
// read only if m carries a deadline or sweepsAtLimit reported true.
func (p *pendingQueue) push(m outMsg, now int64) (displaced []dropped, ok bool) {
	p.scratch = p.scratch[:0]
	if expired(m, now) {
		// Born dead: spend no queue slot on it, and charge it as
		// expired rather than queue pressure.
		p.scratch = append(p.scratch, dropped{msg: m, reason: DropExpired})
		return p.scratch, true
	}
	if m.qos.Key != "" {
		if i, hit := p.idx[coalesceKey{class: m.qos.Class, key: m.qos.Key}]; hit {
			// In-place replacement keeps the stale update's queue
			// position, so no other message moves.
			p.scratch = append(p.scratch, dropped{msg: p.msgs[i], reason: DropCoalesced})
			p.countDeadline(p.msgs[i], -1)
			p.countDeadline(m, 1)
			p.msgs[i] = m
			return p.scratch, true
		}
	}
	if p.sweepsAtLimit() {
		// A queue full of stale messages should not refuse fresh ones.
		p.sweep(now)
	}
	if len(p.msgs) >= p.limit {
		return p.scratch, false
	}
	if m.qos.Key != "" {
		if p.idx == nil {
			p.idx = make(map[coalesceKey]int)
		}
		p.idx[coalesceKey{class: m.qos.Class, key: m.qos.Key}] = len(p.msgs)
	}
	p.countDeadline(m, 1)
	p.msgs = append(p.msgs, m)
	return p.scratch, true
}

// expire sweeps out the messages past their deadline at dequeue time,
// returning them (scratch; consume before the next call).
func (p *pendingQueue) expire(now int64) []dropped {
	p.scratch = p.scratch[:0]
	if p.deadlines > 0 {
		p.sweep(now)
	}
	return p.scratch
}

// drain appends every queued message to dst and empties the queue,
// bounding the capacity it retains.
func (p *pendingQueue) drain(dst []outMsg) []outMsg {
	dst = append(dst, p.msgs...)
	clear(p.msgs) // drop payload/notify refs for GC
	if cap(p.msgs) > maxIdleQueueCap {
		p.msgs = nil
	} else {
		p.msgs = p.msgs[:0]
	}
	// clear keeps the map's buckets warm for the next burst.
	clear(p.idx)
	p.deadlines = 0
	return dst
}

func (p *pendingQueue) countDeadline(m outMsg, d int) {
	if m.qos.Deadline != 0 {
		p.deadlines += d
	}
}

// sweep moves the messages past their deadline to the scratch and keeps
// the survivors in order. Compaction moves survivors, so the key index
// and the deadline count are rebuilt from them.
func (p *pendingQueue) sweep(now int64) {
	w := 0
	for _, m := range p.msgs {
		if expired(m, now) {
			p.scratch = append(p.scratch, dropped{msg: m, reason: DropExpired})
			continue
		}
		p.msgs[w] = m
		w++
	}
	if w == len(p.msgs) {
		return
	}
	clear(p.msgs[w:]) // vacated slots must not pin payloads or notifies
	p.msgs = p.msgs[:w]
	clear(p.idx)
	p.deadlines = 0
	for i, m := range p.msgs {
		if m.qos.Key != "" {
			p.idx[coalesceKey{class: m.qos.Class, key: m.qos.Key}] = i
		}
		p.countDeadline(m, 1)
	}
}
