package core

import (
	"github.com/kompics/kompicsmessaging-go/internal/transport"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// Metrics wiring: when NetworkConfig.Metrics is set, the network feeds a
// stats.Registry with its supervision counters and live transport gauges.
// The registry never touches the transport; the gauges are snapshot-time
// reads through the endpoint's own accessors (QueueStats, InboundTotals),
// so the hot path pays nothing for being observable. Counter names,
// namespaced by MetricsPrefix:
//
//	status_up_total / status_down_total / status_retry_total /
//	status_fallback_total   — supervision transitions published
//	queue_channels / queue_depth / queue_max_depth — outgoing registry
//	drops_<class>_<reason> — pending-queue drops, class ∈ {reliable,
//	control, telemetry}, reason ∈ {full, coalesced, expired}
//	inbound_conns / inbound_frames / inbound_bytes / inbound_deaths
//
// The soak harness layers its own workload metrics (RTT histograms,
// recovery latency) on the same registry under per-node prefixes.

// registerMetrics installs the gauge functions; called once from Init.
// The closures resolve the endpoint at snapshot time, so they stay
// correct across component restarts (each OnStart swaps in a fresh
// endpoint) and report zeros while the network is stopped.
func (n *Network) registerMetrics() {
	reg := n.cfg.Metrics
	if reg == nil {
		return
	}
	pfx := n.cfg.MetricsPrefix
	queue := func(f func(transport.QueueTotals) int64) func() int64 {
		return func() int64 {
			ep := n.endpoint()
			if ep == nil {
				return 0
			}
			return f(ep.QueueStats())
		}
	}
	inbound := func(f func(transport.InboundSummary) int64) func() int64 {
		return func() int64 {
			ep := n.endpoint()
			if ep == nil {
				return 0
			}
			return f(ep.InboundTotals())
		}
	}
	reg.GaugeFunc(pfx+"queue_channels", queue(func(t transport.QueueTotals) int64 { return int64(t.Channels) }))
	reg.GaugeFunc(pfx+"queue_depth", queue(func(t transport.QueueTotals) int64 { return int64(t.Queued) }))
	reg.GaugeFunc(pfx+"queue_max_depth", queue(func(t transport.QueueTotals) int64 { return int64(t.MaxDepth) }))
	for class := QoSClass(0); class < wire.NumClasses; class++ {
		cls := class
		drops := func(f func(transport.PolicyDrops) uint64) func() int64 {
			return func() int64 {
				ep := n.endpoint()
				if ep == nil {
					return 0
				}
				return int64(f(ep.DropStats().PerClass[cls]))
			}
		}
		reg.GaugeFunc(pfx+"drops_"+cls.String()+"_full",
			drops(func(d transport.PolicyDrops) uint64 { return d.Full }))
		reg.GaugeFunc(pfx+"drops_"+cls.String()+"_coalesced",
			drops(func(d transport.PolicyDrops) uint64 { return d.Coalesced }))
		reg.GaugeFunc(pfx+"drops_"+cls.String()+"_expired",
			drops(func(d transport.PolicyDrops) uint64 { return d.Expired }))
	}
	reg.GaugeFunc(pfx+"inbound_conns", inbound(func(t transport.InboundSummary) int64 { return int64(t.Conns) }))
	reg.GaugeFunc(pfx+"inbound_frames", inbound(func(t transport.InboundSummary) int64 { return int64(t.Frames) }))
	reg.GaugeFunc(pfx+"inbound_bytes", inbound(func(t transport.InboundSummary) int64 { return int64(t.Bytes) }))
	reg.GaugeFunc(pfx+"inbound_deaths", inbound(func(t transport.InboundSummary) int64 { return int64(t.Deaths) }))
}

// QueueStats reports the live endpoint's outgoing-registry totals (zero
// while stopped) — the bounded-queue invariant's read side.
func (n *Network) QueueStats() transport.QueueTotals {
	ep := n.endpoint()
	if ep == nil {
		return transport.QueueTotals{}
	}
	return ep.QueueStats()
}

// DropStats reports the live endpoint's per-(class, reason) pending-queue
// drop counters (zero while stopped).
func (n *Network) DropStats() transport.DropTotals {
	ep := n.endpoint()
	if ep == nil {
		return transport.DropTotals{}
	}
	return ep.DropStats()
}

// InboundTotals reports the live endpoint's inbound-registry totals
// (zero while stopped).
func (n *Network) InboundTotals() transport.InboundSummary {
	ep := n.endpoint()
	if ep == nil {
		return transport.InboundSummary{}
	}
	return ep.InboundTotals()
}
