package transport

import (
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// StatusKind discriminates StatusEvent. The events trace one outgoing
// channel's life cycle:
//
//	connecting ──dial ok──▶ Up ──write error──▶ Down, connecting (redial)
//	connecting ──dial failed──▶ Retry (backoff) ──▶ connecting
//	connecting ──attempts exhausted──▶ Down: queue failed, channel gone
//
// A UDT channel whose attempts are exhausted emits Fallback first and
// stays connecting, now dialing TCP; it gives up (Down) only once its
// TCP attempts are exhausted too. A channel leaves the registry only when
// it gives up or the endpoint closes; transient write failures keep it
// registered so queued and future sends ride through the redial.
type StatusKind int

const (
	// StatusUp: the channel established (first dial or a redial).
	StatusUp StatusKind = iota + 1
	// StatusDown: the channel lost its connection (Err says why). If
	// redial attempts remain a StatusRetry follows; otherwise the
	// channel is gone and queued sends have failed.
	StatusDown
	// StatusRetry: a dial attempt failed; the next one runs after
	// NextDelay. Emitted only after the backoff timer is armed, so a
	// test driving a virtual clock can Advance(NextDelay) on receipt
	// without racing the schedule.
	StatusRetry
	// StatusFallback: dial attempts to a UDT destination are exhausted
	// and the channel now dials TCP at To/ToDest, keeping its queue. What
	// follows differs from a TCP channel's traffic in three ways:
	//
	//  1. Later Up, Down and Retry events for this traffic carry the UDT
	//     channel's own (Proto, Dest); no TCP channel is created for it.
	//  2. It uses a TCP connection of its own, not the host's TCP
	//     channel: one extra connection per fallen-back destination.
	//  3. The fallback lasts for the channel's life. If its TCP dials are
	//     exhausted too, the channel gives up (Down), and the next UDT
	//     send to the destination starts over with UDT.
	StatusFallback
)

func (k StatusKind) String() string {
	switch k {
	case StatusUp:
		return "up"
	case StatusDown:
		return "down"
	case StatusRetry:
		return "retry"
	case StatusFallback:
		return "fallback"
	default:
		return "unknown"
	}
}

// StatusEvent reports a supervision transition on one outgoing channel.
// Events are emitted outside endpoint and channel locks, in order per
// channel; the OnStatus callback must be goroutine-safe.
type StatusEvent struct {
	Kind  StatusKind
	Proto wire.Transport
	Dest  string
	// At is the event's timestamp, read from the endpoint's injectable
	// clock (Config.Clock) at emit time — never from the wall clock — so
	// recovery latency (Down → Up) is measurable in tests that drive a
	// virtual clock: the difference equals exactly the advanced backoff.
	At time.Time
	// Attempt counts consecutive failed dials (1-based), NextDelay is
	// the backoff before the next; set on StatusRetry.
	Attempt   int
	NextDelay time.Duration
	// To/ToDest name the protocol and address a channel dials from
	// StatusFallback on.
	To     wire.Transport
	ToDest string
	// Err is the triggering failure on Down/Retry/Fallback.
	Err error
}

// emit delivers ev (stamped with the channel's identity) to the
// endpoint's OnStatus callback, if any. Must be called without holding
// c.mu or the endpoint mutex.
func (c *outChannel) emit(ev StatusEvent) {
	if c.ep.cfg.OnStatus == nil {
		return
	}
	ev.Proto = c.key.proto
	ev.Dest = c.key.dest
	ev.At = c.ep.cfg.Clock.Now()
	c.ep.cfg.OnStatus(ev)
}
