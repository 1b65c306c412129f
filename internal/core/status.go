package core

import (
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// NetworkStatusPort is the connection-supervision port provided by
// Network next to NetworkPort: applications that require it observe
// channel lifecycle (up, down, redial-with-backoff, transport fallback)
// instead of discovering outages through failed notifies. Addresses in
// the events are wire-level "host:port" destinations as transport sees
// them — for UDT channels that includes the transport.UDTPortOffset
// shift.
var NetworkStatusPort = kompics.NewPortType("NetworkStatus").
	Indication(ChannelUp{}).
	Indication(ChannelDown{}).
	Indication(ChannelRetry{}).
	Indication(TransportFallback{})

// Status events carry At, the instant the transport emitted them, read
// from the endpoint's injectable clock — so a consumer measures per-peer
// recovery latency (ChannelDown.At → ChannelUp.At) without ever reading
// the wall clock, and tests on a virtual clock get exact arithmetic: the
// gap equals precisely the backoff delays the test advanced through.

// ChannelUp reports an outgoing channel established (first dial or a
// successful redial).
type ChannelUp struct {
	Proto Transport
	Dest  string
	At    time.Time
}

// ChannelDown reports an outgoing channel losing its connection. If
// redial attempts remain, a ChannelRetry follows; otherwise the channel
// is gone and its queued sends have failed.
type ChannelDown struct {
	Proto Transport
	Dest  string
	At    time.Time
	Err   error
}

// ChannelRetry reports a failed dial attempt (1-based) and the backoff
// delay before the next one.
type ChannelRetry struct {
	Proto     Transport
	Dest      string
	Attempt   int
	NextDelay time.Duration
	At        time.Time
	Err       error
}

// TransportFallback reports graceful degradation: dial attempts over
// From (UDT) were exhausted and the channel now dials To (TCP) at ToDest,
// keeping its queued and future traffic. Later ChannelUp, ChannelDown
// and ChannelRetry events for that traffic still carry From and Dest.
// The fallback lasts as long as the channel: once its TCP attempts are
// exhausted too (ChannelDown), the next UDT send tries UDT again. See
// transport.StatusFallback.
type TransportFallback struct {
	From   Transport
	To     Transport
	Dest   string
	ToDest string
	At     time.Time
	Err    error
}

// StatusPort returns the provided NetworkStatusPort, for wiring after
// Create.
func (n *Network) StatusPort() *kompics.Port { return n.statusPort }

// publishStatus maps a transport supervision event to its port
// indication. Runs in component context.
func (n *Network) publishStatus(ev transport.StatusEvent) {
	n.countStatus(ev.Kind)
	switch ev.Kind {
	case transport.StatusUp:
		n.ctx.Trigger(ChannelUp{Proto: ev.Proto, Dest: ev.Dest, At: ev.At}, n.statusPort)
	case transport.StatusDown:
		n.ctx.Trigger(ChannelDown{Proto: ev.Proto, Dest: ev.Dest, At: ev.At, Err: ev.Err}, n.statusPort)
	case transport.StatusRetry:
		n.ctx.Trigger(ChannelRetry{
			Proto: ev.Proto, Dest: ev.Dest,
			Attempt: ev.Attempt, NextDelay: ev.NextDelay, At: ev.At, Err: ev.Err,
		}, n.statusPort)
	case transport.StatusFallback:
		n.ctx.Trigger(TransportFallback{
			From: ev.Proto, To: ev.To,
			Dest: ev.Dest, ToDest: ev.ToDest, At: ev.At, Err: ev.Err,
		}, n.statusPort)
	}
}
