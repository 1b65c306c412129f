package core

import (
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// ChannelStatus re-exports transport.StatusEvent: one supervision
// transition on one outgoing channel (up, down, redial-with-backoff,
// transport fallback), discriminated by Kind. Dest is the wire-level
// "host:port" destination as transport sees it — for UDT channels that
// includes the transport.UDTPortOffset shift. At is read from the
// endpoint's injectable clock, so a consumer measures per-peer recovery
// latency (Down.At → Up.At) without reading the wall clock, and on a
// virtual clock the gap equals exactly the backoff delays advanced
// through. A Fallback event's Proto is the UDT channel's own, and later
// events for its traffic keep that (Proto, Dest); To/ToDest name the TCP
// destination it now dials.
type ChannelStatus = transport.StatusEvent

// The ChannelStatus kinds, re-exported from internal/transport, whose
// StatusKind documents the channel life cycle they trace.
const (
	StatusUp       = transport.StatusUp
	StatusDown     = transport.StatusDown
	StatusRetry    = transport.StatusRetry
	StatusFallback = transport.StatusFallback
)

// NetworkStatusPort is the connection-supervision port provided by
// Network next to NetworkPort: applications that require it observe
// channel life cycles instead of discovering outages through failed
// notifies. Its one indication is ChannelStatus; a subscriber switches
// on Kind.
var NetworkStatusPort = kompics.NewPortType("NetworkStatus").
	Indication(ChannelStatus{})

// StatusPort returns the provided NetworkStatusPort, for wiring after
// Create.
func (n *Network) StatusPort() *kompics.Port { return n.statusPort }

// publishStatus counts a transport supervision event and triggers it on
// the status port. It is the endpoint's OnStatus callback, so it runs on
// channel goroutines; the registry and Trigger are goroutine-safe.
func (n *Network) publishStatus(ev transport.StatusEvent) {
	if reg := n.cfg.Metrics; reg != nil {
		reg.Counter(n.cfg.MetricsPrefix + "status_" + ev.Kind.String() + "_total").Inc()
	}
	n.ctx.Trigger(ev, n.statusPort)
}
