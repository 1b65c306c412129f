package transport

import (
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// ChannelState is the supervision state of one outgoing channel.
//
//	connecting ──dial ok──▶ up ──write error──▶ connecting (redial w/ backoff)
//	connecting ──attempts exhausted──▶ draining ──pending resolved──▶ down
//
// A UDT channel whose attempts are exhausted falls back first: it stays
// in connecting, now dialing TCP, and reaches draining only once its TCP
// attempts are exhausted too. A channel leaves the registry only when it
// reaches down (give-up) or the endpoint closes; transient write failures
// keep it registered so queued and future sends ride through the redial.
type ChannelState int

const (
	// StateConnecting: dialing, or waiting out a redial backoff. Sends
	// queue (up to MaxPendingPerPeer).
	StateConnecting ChannelState = iota + 1
	// StateUp: established; the run loop is draining the queue.
	StateUp
	// StateDraining: the channel is failing its pending queue on the way
	// down.
	StateDraining
	// StateDown: terminal; the channel is out of the registry.
	StateDown
)

func (s ChannelState) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// StatusKind discriminates StatusEvent.
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
	//     channel's own (Proto, Dest), and ChannelState(UDT, Dest)
	//     reports it; no TCP channel is created for it.
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
