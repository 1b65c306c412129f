package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/faults"
	"github.com/kompics/kompicsmessaging-go/internal/filetransfer"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/pingpong"
	"github.com/kompics/kompicsmessaging-go/internal/relay"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// node is one middleware instance in the soak topology: a full Network
// component (TCP + UDP listeners at its port, UDT at port+1) plus its
// status watcher.
type node struct {
	index  int
	self   core.BasicAddress
	sys    *kompics.System
	net    *core.Network
	status *statusWatcher
}

// cluster is the whole loopback topology plus the workload drivers
// running over it.
type cluster struct {
	nodes []*node
	reg   *stats.Registry

	pingers   []*pingpong.Pinger
	xfer      *xferDriver
	relay     *relayDriver
	telemetry *telemetryDriver
}

// clusterConfig parameterises boot.
type clusterConfig struct {
	nodes    int
	basePort int
	seed     int64
	inj      *faults.Injector
	reg      *stats.Registry
	duration time.Duration
	// maxPending bounds every node's transport pending queues
	// (-max-pending).
	maxPending int
}

// targetsOf lists the schedule targets: per node, the wire destinations
// its peers dial — "host:port" for TCP/UDP, "host:port+1" for UDT.
func targetsOf(basePort, nodes int) []faults.Target {
	ts := make([]faults.Target, nodes)
	for i := 0; i < nodes; i++ {
		port := basePort + 2*i
		ts[i] = faults.Target{
			Name: fmt.Sprintf("node%d", i),
			Dests: []string{
				fmt.Sprintf("127.0.0.1:%d", port),
				fmt.Sprintf("127.0.0.1:%d", port+1),
			},
		}
	}
	return ts
}

// boot builds and starts the topology: every node listens on loopback,
// shares the fault injector (rules select their victims by destination
// address) and feeds the shared stats registry under a per-node prefix.
func boot(cfg clusterConfig) (*cluster, error) {
	reg := core.NewRegistry()
	if err := pingpong.Register(reg); err != nil {
		return nil, err
	}
	if err := relay.Register(reg); err != nil {
		return nil, err
	}
	if err := filetransfer.Register(reg); err != nil {
		return nil, err
	}

	c := &cluster{reg: cfg.reg}
	for i := 0; i < cfg.nodes; i++ {
		self := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", cfg.basePort+2*i))
		netDef, err := core.NewNetwork(core.NetworkConfig{
			Self:          self,
			Registry:      reg,
			Metrics:       cfg.reg,
			MetricsPrefix: fmt.Sprintf("node%d.", i),
			Transport: transport.Config{
				Faults: cfg.inj,
				// Channels must ride outages out, not give up: a huge dial
				// budget keeps them retrying (and keeps UDT channels from
				// falling back to TCP mid-campaign), and a short backoff
				// ceiling keeps recovery latency dominated by the outage
				// window rather than the last doubling.
				MaxDialAttempts:   1 << 20,
				RedialBackoffMax:  time.Second,
				BackoffSeed:       cfg.seed + int64(i),
				MaxPendingPerPeer: cfg.maxPending,
			},
		})
		if err != nil {
			return nil, err
		}
		sys := kompics.NewSystem()
		netComp := sys.Create(netDef)
		watcher := newStatusWatcher(cfg.reg)
		watcherComp := sys.Create(watcher)
		kompics.MustConnect(netDef.StatusPort(), watcher.port)
		sys.Start(netComp)
		sys.Start(watcherComp)
		c.nodes = append(c.nodes, &node{
			index: i, self: self, sys: sys, net: netDef, status: watcher,
		})
	}
	for _, n := range c.nodes {
		n.sys.AwaitQuiescence()
		if n.net.Addr(core.TCP) == "" {
			c.shutdown()
			return nil, fmt.Errorf("node%d listeners did not come up", n.index)
		}
	}
	if err := c.startWorkloads(cfg); err != nil {
		c.shutdown()
		return nil, err
	}
	return c, nil
}

// startWorkloads composes the three traffic patterns of the paper's
// evaluation over the live topology:
//
//   - pingpong: control-plane probes node0→node1 over TCP, node0→last
//     over UDP, last→node0 over UDT — every wire protocol sees traffic
//     and every RTT feeds the shared histogram.
//   - filetransfer: a bulk stream node0→node1 over TCP, restarted for
//     the whole run — the data-plane load outages must not corrupt.
//   - relay: a routed ring over every node over TCP — multi-hop traffic
//     whose delivery requires every peer, so any outage shows up as a
//     delivery-rate dip.
func (c *cluster) startWorkloads(cfg clusterConfig) error {
	first, last := c.nodes[0], c.nodes[len(c.nodes)-1]

	const pingInterval = 50 * time.Millisecond
	// Probe for the whole run, then stop on their own: a finite count
	// lets the tail of the run quiesce without a stop channel.
	pingCount := int(cfg.duration/pingInterval) + 1
	pings := []struct {
		from, to *node
		proto    core.Transport
	}{
		{first, c.nodes[1%len(c.nodes)], core.TCP},
		{first, last, core.UDP},
		{last, first, core.UDT},
	}
	for _, p := range pings {
		ponger := pingpong.NewPonger(p.to.self)
		pongerComp := p.to.sys.Create(ponger)
		kompics.MustConnect(p.to.net.Port(), ponger.NetPort())
		p.to.sys.Start(pongerComp)

		pinger := pingpong.NewPinger(pingpong.PingerConfig{
			Self: p.from.self, Dest: p.to.self, Proto: p.proto,
			Interval: pingInterval, Count: pingCount,
		})
		pingerComp := p.from.sys.Create(pinger)
		kompics.MustConnect(p.from.net.Port(), pinger.NetPort())
		coll := newRTTCollector(c.reg, fmt.Sprintf("rtt_%s_ns", p.proto))
		collComp := p.from.sys.Create(coll)
		kompics.MustConnect(pinger.Port(), coll.port)
		p.from.sys.Start(pingerComp)
		p.from.sys.Start(collComp)
		coll.comp.SelfTrigger(startPings{})
		c.pingers = append(c.pingers, pinger)
	}

	// Bulk transfers node0 → node1 over TCP, restarted on completion.
	dataset, err := filetransfer.NewDataset(cfg.seed, 256<<10)
	if err != nil {
		return err
	}
	xferTo := c.nodes[1%len(c.nodes)]
	recv := filetransfer.NewReceiver()
	recvComp := xferTo.sys.Create(recv)
	kompics.MustConnect(xferTo.net.Port(), recv.NetPort())
	xferTo.sys.Start(recvComp)
	sender, err := filetransfer.NewSender(filetransfer.SenderConfig{
		Self: first.self, Dest: xferTo.self, Proto: core.TCP,
		Data: dataset, WindowSize: 64,
	})
	if err != nil {
		return err
	}
	senderComp := first.sys.Create(sender)
	kompics.MustConnect(first.net.Port(), sender.NetPort())
	c.xfer = newXferDriver(c.reg)
	xferComp := first.sys.Create(c.xfer)
	kompics.MustConnect(sender.Port(), c.xfer.port)
	first.sys.Start(senderComp)
	first.sys.Start(xferComp)
	c.xfer.comp.SelfTrigger(startXfer{})

	// Routed ring through every node, originating and terminating at
	// node0.
	var hops []core.Address
	for _, n := range c.nodes[1:] {
		hops = append(hops, n.self)
	}
	hops = append(hops, first.self)
	for _, n := range c.nodes {
		fwd := relay.NewForwarder(n.self)
		fwdComp := n.sys.Create(fwd)
		kompics.MustConnect(n.net.Port(), fwd.NetPort())
		n.sys.Start(fwdComp)
	}
	c.relay = newRelayDriver(c.reg, first.self, hops)
	relayComp := first.sys.Create(c.relay)
	kompics.MustConnect(first.net.Port(), c.relay.netPort)
	first.sys.Start(relayComp)
	c.relay.comp.SelfTrigger(relayTick{})

	// QoS telemetry node0 → node1 over TCP: keyed, deadlined sensor
	// updates at a rate an outage window cannot absorb, so the messages'
	// own keys and deadlines decide what reaches the wire: the coalesce
	// counters climb while the freshest value per key still arrives.
	telemTo := c.nodes[1%len(c.nodes)]
	tr := newTelemetryReceiver(c.reg)
	trComp := telemTo.sys.Create(tr)
	kompics.MustConnect(telemTo.net.Port(), tr.netPort)
	telemTo.sys.Start(trComp)
	c.telemetry = newTelemetryDriver(c.reg, first.self, telemTo.self)
	tdComp := first.sys.Create(c.telemetry)
	kompics.MustConnect(first.net.Port(), c.telemetry.netPort)
	first.sys.Start(tdComp)
	c.telemetry.comp.SelfTrigger(telemetryTick{})
	return nil
}

// stopTraffic tells the self-restarting drivers to wind down; the finite
// pingers stop on their own.
func (c *cluster) stopTraffic() {
	c.xfer.stopped.Store(true)
	c.relay.stopped.Store(true)
	c.telemetry.stopped.Store(true)
}

// quiesce drains every node's component queues.
func (c *cluster) quiesce() {
	for _, n := range c.nodes {
		n.sys.AwaitQuiescence()
	}
}

// shutdown stops every system (network teardown closes endpoints and
// recycles stage buffers).
func (c *cluster) shutdown() {
	for _, n := range c.nodes {
		n.sys.Shutdown()
	}
}

// --- status watcher ---------------------------------------------------------

// outage is one down→up cycle on a channel, measured purely from the
// injectable-clock timestamps the status events carry.
type outage struct {
	Proto    core.Transport
	Dest     string
	DownAt   time.Time
	Recovery time.Duration // zero while unrecovered
}

// statusWatcher subscribes to one node's NetworkStatusPort and turns the
// event stream into recovery-latency measurements — the KompicsTesting
// idea of asserting over event streams, applied to supervision.
type statusWatcher struct {
	port *kompics.Port
	reg  *stats.Registry

	mu      sync.Mutex
	pending map[string]time.Time // dest key -> DownAt
	outages []outage
}

func newStatusWatcher(reg *stats.Registry) *statusWatcher {
	return &statusWatcher{reg: reg, pending: make(map[string]time.Time)}
}

func (w *statusWatcher) Init(ctx *kompics.Context) {
	w.port = ctx.Requires(core.NetworkStatusPort)
	ctx.Subscribe(w.port, core.ChannelStatus{}, func(e kompics.Event) {
		ev := e.(core.ChannelStatus)
		k := key(ev.Proto, ev.Dest)
		w.mu.Lock()
		defer w.mu.Unlock()
		switch ev.Kind {
		case core.StatusDown:
			w.pending[k] = ev.At
		case core.StatusUp:
			downAt, ok := w.pending[k]
			if !ok {
				return
			}
			delete(w.pending, k)
			rec := ev.At.Sub(downAt)
			w.outages = append(w.outages, outage{
				Proto: ev.Proto, Dest: ev.Dest, DownAt: downAt, Recovery: rec,
			})
			w.reg.Histogram("recovery_ns").Record(rec.Nanoseconds())
		}
	})
}

func key(p core.Transport, dest string) string { return fmt.Sprintf("%v|%s", p, dest) }

// results returns the recovered outages and any still-pending downs.
func (w *statusWatcher) results() (recovered []outage, unrecovered []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	recovered = append(recovered, w.outages...)
	for k := range w.pending {
		unrecovered = append(unrecovered, k)
	}
	return recovered, unrecovered
}

// --- workload drivers -------------------------------------------------------

// rttCollector feeds RTT samples into the shared histogram and kicks the
// pinger off (StartPinging must be triggered from a connected component).
type rttCollector struct {
	port *kompics.Port
	comp *kompics.Component
	reg  *stats.Registry
	name string
}

type startPings struct{}

func newRTTCollector(reg *stats.Registry, name string) *rttCollector {
	return &rttCollector{reg: reg, name: name}
}

func (r *rttCollector) Init(ctx *kompics.Context) {
	r.comp = ctx.Component()
	r.port = ctx.Requires(pingpong.PingPort)
	ctx.Subscribe(r.port, pingpong.RTTSample{}, func(e kompics.Event) {
		r.reg.Histogram(r.name).Record(e.(pingpong.RTTSample).RTT.Nanoseconds())
	})
	ctx.SubscribeSelf(startPings{}, func(kompics.Event) {
		ctx.Trigger(pingpong.StartPinging{}, r.port)
	})
}

// xferDriver restarts the bulk transfer every time it completes, until
// told to stop. The sender acknowledges failed chunks too (at-most-once),
// so transfers complete sender-side even through an outage window.
type xferDriver struct {
	port    *kompics.Port
	comp    *kompics.Component
	reg     *stats.Registry
	next    uint32
	stopped atomic.Bool
}

type startXfer struct{}

func newXferDriver(reg *stats.Registry) *xferDriver { return &xferDriver{reg: reg} }

func (d *xferDriver) Init(ctx *kompics.Context) {
	d.comp = ctx.Component()
	d.port = ctx.Requires(filetransfer.TransferPort)
	begin := func() {
		d.next++
		ctx.Trigger(filetransfer.StartTransfer{TransferID: d.next}, d.port)
	}
	ctx.Subscribe(d.port, filetransfer.Complete{}, func(e kompics.Event) {
		d.reg.Counter("transfers_total").Inc()
		d.reg.Counter("transfer_bytes_total").Add(uint64(e.(filetransfer.Complete).Bytes))
		if !d.stopped.Load() {
			begin()
		}
	})
	ctx.SubscribeSelf(startXfer{}, func(kompics.Event) { begin() })
}

// relayDriver sends a routed ring message at a fixed interval and counts
// the ones that make it all the way around.
type relayDriver struct {
	netPort *kompics.Port
	comp    *kompics.Component
	reg     *stats.Registry
	self    core.Address
	hops    []core.Address
	stopped atomic.Bool
}

type relayTick struct{}

const relayInterval = 100 * time.Millisecond

func newRelayDriver(reg *stats.Registry, self core.Address, hops []core.Address) *relayDriver {
	return &relayDriver{reg: reg, self: self, hops: hops}
}

// telemetryDriver emits bursts of keyed sensor updates as ClassTelemetry
// DataMsgs: telemetryKeys keys per burst, one burst per telemetryInterval,
// each update carrying a latest-value key ("sensorN") and an absolute
// deadline telemetryDeadline out. While the destination channel rides an
// outage the bursts pile into the pending queue faster than any backlog
// drain can clear, which is the overload the keys and deadlines shed.
type telemetryDriver struct {
	netPort *kompics.Port
	comp    *kompics.Component
	reg     *stats.Registry
	self    core.Address
	dest    core.Address
	seq     uint64
	stopped atomic.Bool
}

type telemetryTick struct{}

const (
	telemetryInterval = 20 * time.Millisecond
	telemetryKeys     = 8
	telemetryDeadline = 500 * time.Millisecond
)

func newTelemetryDriver(reg *stats.Registry, self, dest core.Address) *telemetryDriver {
	return &telemetryDriver{reg: reg, self: self, dest: dest}
}

func (d *telemetryDriver) Init(ctx *kompics.Context) {
	d.comp = ctx.Component()
	d.netPort = ctx.Requires(core.NetworkPort)
	ctx.SubscribeSelf(telemetryTick{}, func(kompics.Event) {
		if d.stopped.Load() {
			return
		}
		deadline := ctx.System().Clock().Now().Add(telemetryDeadline).UnixNano()
		for i := 0; i < telemetryKeys; i++ {
			d.seq++
			msg := &core.DataMsg{
				Hdr: core.NewHeader(d.self, d.dest, core.TCP).WithQoS(core.QoS{
					Class:    core.ClassTelemetry,
					Key:      fmt.Sprintf("sensor%d", i),
					Deadline: deadline,
				}),
				Payload: []byte(fmt.Sprintf("reading %d", d.seq)),
			}
			d.reg.Counter("telemetry_sent_total").Inc()
			ctx.Trigger(msg, d.netPort)
		}
		ctx.System().Clock().AfterFunc(telemetryInterval, func() {
			d.comp.SelfTrigger(telemetryTick{})
		})
	})
}

// telemetryReceiver counts telemetry-class DataMsgs arriving at the sink
// node; the gate report compares the count against telemetry_sent_total
// to compute the effective drop rate.
type telemetryReceiver struct {
	netPort *kompics.Port
	reg     *stats.Registry
}

func newTelemetryReceiver(reg *stats.Registry) *telemetryReceiver {
	return &telemetryReceiver{reg: reg}
}

func (r *telemetryReceiver) Init(ctx *kompics.Context) {
	r.netPort = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(r.netPort, (*core.Msg)(nil), func(e kompics.Event) {
		m, ok := e.(*core.DataMsg)
		if !ok || m.Hdr.QoS.Class != core.ClassTelemetry {
			return
		}
		r.reg.Counter("telemetry_recv_total").Inc()
	})
}

func (d *relayDriver) Init(ctx *kompics.Context) {
	d.comp = ctx.Component()
	d.netPort = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(d.netPort, (*core.Msg)(nil), func(e kompics.Event) {
		m, ok := e.(*relay.RoutedMsg)
		if !ok {
			return
		}
		if _, more := m.Hdr.Advance(); !more {
			d.reg.Counter("relay_rings_total").Inc()
		}
	})
	ctx.SubscribeSelf(relayTick{}, func(kompics.Event) {
		if d.stopped.Load() {
			return
		}
		msg, err := relay.NewRoutedMsg(d.self, d.hops, core.TCP, []byte("soak-ring"))
		if err == nil {
			d.reg.Counter("relay_sent_total").Inc()
			ctx.Trigger(msg, d.netPort)
		}
		ctx.System().Clock().AfterFunc(relayInterval, func() {
			d.comp.SelfTrigger(relayTick{})
		})
	})
}
