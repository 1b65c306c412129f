package transport

import (
	"fmt"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// Overload policy layer. PR 4's bounded per-peer queue had exactly one
// behaviour at MaxPendingPerPeer: fail the newest send with ErrQueueFull.
// That is arrival-order shedding — precisely backwards for value-of-update
// workloads (goal-oriented transport filtering: freshness beats
// completeness). The queue is therefore parameterised by a QueuePolicy:
// the channel keeps owning the storage (queue []outMsg under c.mu, so the
// drain/close paths and their invariants are untouched), and the
// policy decides what happens at the admission and dequeue edges.
//
// Contract, shared by every implementation:
//
//   - Push and Expire are called with the channel mutex held and must not
//     block, call notify, or touch bufpool. Messages they displace are
//     *returned*, never released inline — release runs a user callback
//     and a pool Put, which must happen outside the lock. The returned
//     dropped slice is scratch owned by the PendingQueue: the caller
//     consumes it before the next call under the same lock.
//   - Per-(peer, class) FIFO is preserved: a policy may remove queued
//     messages or replace one in place, but never reorders survivors.
//   - Exactly-once accounting: every message either survives to the
//     batch writer or comes back exactly once as dropped (and is then
//     released with a typed *ErrDropped through notify, charged to the
//     endpoint's per-class drop counters).

// DropReason says why a queue policy dropped a message.
type DropReason uint8

const (
	// DropQueueFull is queue pressure: the pending queue was at
	// MaxPendingPerPeer and the policy shed this message (the rejected
	// newest, or the evicted oldest under DropOldest).
	DropQueueFull DropReason = iota + 1
	// DropCoalesced is latest-value-wins shedding: a newer update for
	// the same application key replaced this queued one.
	DropCoalesced
	// DropExpired is deadline shedding: the message was still queued
	// past its QoS deadline.
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

// ErrDropped is the typed error every policy drop reports through notify,
// so at-most-once accounting upstream (the DATA interceptor, the codec
// stage, application notify handlers) can tell a policy shed from a wire
// failure and react per reason.
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

// Unwrap ties queue-pressure drops into the pre-policy error contract:
// errors.Is(err, ErrQueueFull) keeps reporting overflow whether the
// policy rejected the newest or evicted the oldest. Coalesced and expired
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

// PendingQueue is one channel's policy state. The channel owns the queue
// slice; the policy owns any index it keeps over it (positions are stable
// between Drained calls because only Push mutates the slice while
// messages are pending). All methods run under the channel mutex.
type PendingQueue interface {
	// Push admits m into q, returning the updated slice, any messages it
	// displaced (scratch; consume before the next call), and whether m
	// was handled. ok=false means m was rejected at the limit and the
	// caller charges it as DropQueueFull; a policy shedding m for any
	// other reason returns it through displaced instead (e.g. a message
	// whose deadline already passed arrives born dead).
	Push(q []outMsg, m outMsg, now int64) (nq []outMsg, displaced []dropped, ok bool)
	// Expire filters q at dequeue time, returning survivors (order
	// preserved) and the expired tail-latency casualties. Policies
	// without deadlines return q unchanged.
	Expire(q []outMsg, now int64) (nq []outMsg, expired []dropped)
	// Drained tells the policy the channel emptied the queue (batch
	// drain or close), invalidating any positional index.
	Drained()
}

// QueuePolicy names an overload policy and builds its per-channel state.
// Configure with Config.QueuePolicy; the default is RejectNewest, which
// is behaviour-identical to the pre-policy fail-fast queue.
type QueuePolicy interface {
	// Name is the policy's stable CLI/report name.
	Name() string
	// NewQueue builds per-channel state for a queue bounded at limit.
	NewQueue(limit int) PendingQueue
	// NeedsTime reports whether Push/Expire consult the clock; the
	// channel skips the Clock.Now read per operation when false, keeping
	// the default policy's hot path clock-free.
	NeedsTime() bool
}

// The built-in policies.
var (
	// RejectNewest fails the arriving send at the limit — the original
	// fail-fast behaviour and the default.
	RejectNewest QueuePolicy = rejectNewestPolicy{}
	// DropOldest evicts the head of the queue at the limit and admits
	// the arrival: bounded staleness, newest data survives.
	DropOldest QueuePolicy = dropOldestPolicy{}
	// LatestValueWins coalesces per QoS key: a newer update for the same
	// (class, key) replaces the queued one in place, so under overload
	// each key's freshest value is what reaches the wire. Messages
	// without a key never coalesce; at the limit an uncoalescible
	// arrival is rejected like RejectNewest.
	LatestValueWins QueuePolicy = latestValueWinsPolicy{}
	// DeadlineExpiry drops messages whose QoS deadline passed while they
	// queued — lazily at dequeue (including the first drain after a
	// reconnect, so an outage's backlog sheds its stale tail) and as a
	// sweep before rejecting at the limit.
	DeadlineExpiry QueuePolicy = deadlineExpiryPolicy{}
)

// Policies lists the built-in queue policies.
func Policies() []QueuePolicy {
	return []QueuePolicy{RejectNewest, DropOldest, LatestValueWins, DeadlineExpiry}
}

// PolicyByName resolves a policy by its CLI name.
func PolicyByName(name string) (QueuePolicy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("transport: unknown queue policy %q (have reject, drop-oldest, latest-value, deadline)", name)
}

// --- RejectNewest ------------------------------------------------------------

type rejectNewestPolicy struct{}

func (rejectNewestPolicy) Name() string    { return "reject" }
func (rejectNewestPolicy) NeedsTime() bool { return false }
func (rejectNewestPolicy) NewQueue(limit int) PendingQueue {
	return &rejectQueue{limit: limit}
}

type rejectQueue struct{ limit int }

func (p *rejectQueue) Push(q []outMsg, m outMsg, _ int64) ([]outMsg, []dropped, bool) {
	if len(q) >= p.limit {
		return q, nil, false
	}
	return append(q, m), nil, true
}

func (p *rejectQueue) Expire(q []outMsg, _ int64) ([]outMsg, []dropped) { return q, nil }
func (p *rejectQueue) Drained()                                         {}

// --- DropOldest --------------------------------------------------------------

type dropOldestPolicy struct{}

func (dropOldestPolicy) Name() string    { return "drop-oldest" }
func (dropOldestPolicy) NeedsTime() bool { return false }
func (dropOldestPolicy) NewQueue(limit int) PendingQueue {
	return &dropOldestQueue{limit: limit}
}

type dropOldestQueue struct {
	limit   int
	scratch []dropped
}

func (p *dropOldestQueue) Push(q []outMsg, m outMsg, _ int64) ([]outMsg, []dropped, bool) {
	p.scratch = p.scratch[:0]
	if len(q) >= p.limit {
		// Evict the head: one memmove per overloaded push keeps the
		// storage a plain slice (the drain, close and stats paths read it
		// as-is); the cost is confined to the saturated channel.
		p.scratch = append(p.scratch, dropped{msg: q[0], reason: DropQueueFull})
		copy(q, q[1:])
		q[len(q)-1] = m
		return q, p.scratch, true
	}
	return append(q, m), nil, true
}

func (p *dropOldestQueue) Expire(q []outMsg, _ int64) ([]outMsg, []dropped) { return q, nil }
func (p *dropOldestQueue) Drained()                                         {}

// --- LatestValueWins ---------------------------------------------------------

type latestValueWinsPolicy struct{}

func (latestValueWinsPolicy) Name() string    { return "latest-value" }
func (latestValueWinsPolicy) NeedsTime() bool { return false }
func (latestValueWinsPolicy) NewQueue(limit int) PendingQueue {
	return &latestValueQueue{limit: limit}
}

// coalesceKey scopes coalescing to (class, key): replacing a queued
// telemetry update with a later control message sharing its key would
// teleport the control message to the telemetry message's queue position,
// breaking per-(peer, class) FIFO.
type coalesceKey struct {
	class wire.Class
	key   string
}

type latestValueQueue struct {
	limit int
	// idx maps a live coalesce key to its position in the channel queue.
	// Positions are stable between Drained calls: Push either appends or
	// replaces in place, never shifts.
	idx     map[coalesceKey]int
	scratch []dropped
}

func (p *latestValueQueue) Push(q []outMsg, m outMsg, _ int64) ([]outMsg, []dropped, bool) {
	if m.qos.Key != "" {
		k := coalesceKey{class: m.qos.Class, key: m.qos.Key}
		if i, hit := p.idx[k]; hit {
			// In-place replacement keeps the stale update's queue position,
			// so distinct keys (and every other class) never reorder.
			p.scratch = append(p.scratch[:0], dropped{msg: q[i], reason: DropCoalesced})
			q[i] = m
			return q, p.scratch, true
		}
	}
	if len(q) >= p.limit {
		return q, nil, false
	}
	if m.qos.Key != "" {
		if p.idx == nil {
			p.idx = make(map[coalesceKey]int)
		}
		p.idx[coalesceKey{class: m.qos.Class, key: m.qos.Key}] = len(q)
	}
	return append(q, m), nil, true
}

func (p *latestValueQueue) Expire(q []outMsg, _ int64) ([]outMsg, []dropped) { return q, nil }

func (p *latestValueQueue) Drained() {
	// The queue emptied; every position the index held is gone. clear()
	// keeps the map's buckets warm for the next burst.
	clear(p.idx)
}

// --- DeadlineExpiry ----------------------------------------------------------

type deadlineExpiryPolicy struct{}

func (deadlineExpiryPolicy) Name() string    { return "deadline" }
func (deadlineExpiryPolicy) NeedsTime() bool { return true }
func (deadlineExpiryPolicy) NewQueue(limit int) PendingQueue {
	return &deadlineQueue{limit: limit}
}

type deadlineQueue struct {
	limit   int
	scratch []dropped
}

// expired reports whether m's deadline passed by now (0 = no deadline).
func expired(m outMsg, now int64) bool {
	return m.qos.Deadline != 0 && m.qos.Deadline <= now
}

func (p *deadlineQueue) Push(q []outMsg, m outMsg, now int64) ([]outMsg, []dropped, bool) {
	if len(q) >= p.limit {
		// At the bound, reclaim expired slots before rejecting: a queue
		// full of stale updates should not refuse fresh ones.
		q, p.scratch = sweepExpired(q, now, p.scratch[:0])
		if len(q) >= p.limit {
			return q, p.scratch, false
		}
	} else {
		p.scratch = p.scratch[:0]
	}
	if expired(m, now) {
		// Born dead (deadline already past at enqueue): shed immediately
		// rather than spending a queue slot on it. Returned through
		// displaced — not ok=false — so it is charged as DropExpired
		// rather than queue pressure.
		p.scratch = append(p.scratch, dropped{msg: m, reason: DropExpired})
		return q, p.scratch, true
	}
	return append(q, m), p.scratch, true
}

func (p *deadlineQueue) Expire(q []outMsg, now int64) ([]outMsg, []dropped) {
	q, p.scratch = sweepExpired(q, now, p.scratch[:0])
	return q, p.scratch
}

func (p *deadlineQueue) Drained() {}

// sweepExpired filters q in place, order preserved, appending casualties
// to out. Vacated tail slots are zeroed so payload/notify refs do not pin.
func sweepExpired(q []outMsg, now int64, out []dropped) ([]outMsg, []dropped) {
	w := 0
	for _, m := range q {
		if expired(m, now) {
			out = append(out, dropped{msg: m, reason: DropExpired})
			continue
		}
		q[w] = m
		w++
	}
	for i := w; i < len(q); i++ {
		q[i] = outMsg{}
	}
	return q[:w], out
}
