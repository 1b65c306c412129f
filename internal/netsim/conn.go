package netsim

import (
	"fmt"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
)

// MsgKind tags simulated messages for statistics.
type MsgKind int

// Message kinds.
const (
	DataKind MsgKind = iota + 1
	ControlKind
)

// Message is the unit of simulated transmission. Size is the payload in
// bytes; framing overhead is added internally.
type Message struct {
	// ID is a caller-chosen identifier.
	ID uint64
	// Size is the payload size in bytes.
	Size int
	// Kind tags the message for statistics.
	Kind MsgKind
	// SrcVNode and DstVNode identify logical endpoints when the message
	// travels between virtual nodes multiplexed onto the simulated hosts
	// (see internal/vnet.HostMux). Zero when unused.
	SrcVNode uint64
	DstVNode uint64
	// EnqueuedAt and DeliveredAt are stamped by the simulator.
	EnqueuedAt  time.Time
	DeliveredAt time.Time
	// Meta carries arbitrary caller context.
	Meta interface{}
}

// frameOverhead approximates per-message header bytes on the wire.
const frameOverhead = 40

// LaneStats aggregates one direction of a connection.
type LaneStats struct {
	// MsgsDelivered and BytesDelivered count payload arriving at the far
	// end.
	MsgsDelivered  int
	BytesDelivered int64
	// MsgsDropped and BytesDropped count at-most-once losses (UDP only).
	MsgsDropped  int
	BytesDropped int64
	// LossEvents counts sampled segment-loss events.
	LossEvents int
}

// Conn is a duplex protocol connection over a Path. Each direction has an
// independent FIFO send lane and congestion state, like a real socket.
type Conn struct {
	path   *Path
	proto  core.Transport
	lanes  [2]*lane
	closed bool
}

// ConnOption configures a connection.
type ConnOption func(*Conn)

// WithDiskBound marks the connection's flows as disk-bound, applying the
// path's DiskRate cap (used by the file-transfer workload).
func WithDiskBound() ConnOption {
	return func(c *Conn) {
		for _, l := range c.lanes {
			l.diskBound = true
		}
	}
}

// NewConn opens a connection with the given wire protocol on the path.
func (p *Path) NewConn(proto core.Transport, opts ...ConnOption) *Conn {
	if !proto.Wire() {
		panic(fmt.Sprintf("netsim: NewConn requires a wire protocol, got %v", proto))
	}
	c := &Conn{path: p, proto: proto}
	for d := AtoB; d <= BtoA; d++ {
		l := &lane{
			conn:  c,
			dir:   d,
			model: newModel(proto, p.modelRTT()),
		}
		// Bind the two event callbacks once per lane. Every transmission
		// reuses these func values through Post/PostArg, so the per-message
		// hot path creates no closures at all.
		l.sentEvt = l.sent
		l.deliverEvt = l.deliver
		c.lanes[d] = l
		p.register(l)
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func newModel(proto core.Transport, rtt time.Duration) protoModel {
	switch proto {
	case core.TCP:
		return newTCPModel(rtt)
	case core.UDT:
		return newUDTModel()
	case core.UDP:
		return udpModel{}
	default:
		panic(fmt.Sprintf("netsim: no model for %v", proto))
	}
}

// Proto returns the connection's wire protocol.
func (c *Conn) Proto() core.Transport { return c.proto }

// Path returns the path the connection runs over.
func (c *Conn) Path() *Path { return c.path }

// OnDeliver installs the receive callback for messages travelling in
// direction d. The callback runs on the simulation goroutine.
func (c *Conn) OnDeliver(d Dir, fn func(*Message)) { c.lanes[d].onDeliver = fn }

// OnSent installs a callback fired when a message finishes local
// transmission in direction d (the socket-write completion the middleware
// sees, used for sender-side flow control).
func (c *Conn) OnSent(d Dir, fn func(*Message)) { c.lanes[d].onSent = fn }

// OnDrop installs a callback for messages lost in direction d (unreliable
// transports only).
func (c *Conn) OnDrop(d Dir, fn func(*Message)) { c.lanes[d].onDrop = fn }

// Send enqueues m for transmission in direction d. Delivery is
// asynchronous; at-most-once transports may drop the message.
func (c *Conn) Send(d Dir, m *Message) {
	if c.closed {
		return
	}
	l := c.lanes[d]
	m.EnqueuedAt = time.Unix(0, c.path.sim.NowNanos()).UTC()
	l.queue.push(m)
	l.queuedBytes += m.Size
	l.maybeStart()
}

// QueuedBytes reports payload bytes waiting (not yet transmitting) in
// direction d.
func (c *Conn) QueuedBytes(d Dir) int { return c.lanes[d].queuedBytes }

// QueuedMessages reports messages waiting in direction d.
func (c *Conn) QueuedMessages(d Dir) int { return c.lanes[d].queue.len() }

// Stats returns a copy of the lane statistics for direction d.
func (c *Conn) Stats(d Dir) LaneStats { return c.lanes[d].stats }

// Close removes the connection from the path and discards queued traffic.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, l := range c.lanes {
		c.path.unregister(l)
		l.queue.reset()
		l.queuedBytes = 0
	}
}

// lane is one direction of a Conn: a FIFO queue serviced at the rate the
// protocol model and link sharing allow.
type lane struct {
	conn      *Conn
	dir       Dir
	model     protoModel
	diskBound bool

	queue       msgRing
	queuedBytes int
	busy        bool

	// At most one message transmits at a time (busy gates maybeStart), so
	// the sent event reads its subject from the lane instead of a closure.
	// Deliveries overlap — a message propagates while the next transmits —
	// so those ride through PostArg's timer-node argument. sentEvt and
	// deliverEvt are bound once in NewConn; the per-message hot path
	// allocates neither closures nor timer nodes (wheel clock, warm pool).
	inflight        *Message
	inflightDropped bool
	sentEvt         func()
	deliverEvt      func(any)

	stats LaneStats

	onDeliver func(*Message)
	onSent    func(*Message)
	onDrop    func(*Message)
}

// active reports whether the lane competes for link capacity.
func (l *lane) active() bool { return l.busy || l.queue.len() > 0 }

// cappedDemand is the model's demand clipped by every cap that applies to
// this lane: the UDP policer for UDP-carried protocols, the UDT internal
// buffer bound, the disk bound for disk-bound flows, and the middleware
// serialisation bound.
func (l *lane) cappedDemand() float64 {
	return l.clipToCaps(l.model.demand())
}

// staticCap is the rate bound imposed by the environment alone, ignoring
// the protocol's current state. Rate-based models ramp towards it.
func (l *lane) staticCap() float64 {
	return l.clipToCaps(l.conn.path.cfg.LinkRate)
}

func (l *lane) clipToCaps(d float64) float64 {
	cfg := l.conn.path.cfg
	clip := func(bound float64) {
		if bound > 0 && d > bound {
			d = bound
		}
	}
	if l.model.policed() {
		clip(cfg.UDPPolicerRate)
	}
	if l.conn.proto == core.UDT {
		clip(cfg.UDTMaxRate)
	}
	if l.diskBound {
		clip(cfg.DiskRate)
	}
	clip(cfg.AppRate)
	clip(cfg.LinkRate)
	return d
}

// maybeStart begins transmitting the head-of-line message if the lane is
// idle.
func (l *lane) maybeStart() {
	if l.busy || l.conn.closed || l.queue.len() == 0 {
		return
	}
	m := l.queue.pop()
	l.queuedBytes -= m.Size
	l.busy = true

	path := l.conn.path
	sim := path.sim

	rate := path.shareLink(l)
	if rate <= 0 {
		rate = udtMinRate // defensive floor; demand is never zero in practice
	}
	wireBytes := float64(m.Size + frameOverhead)
	segs := int((wireBytes + mss - 1) / mss)
	if segs < 1 {
		segs = 1
	}
	losses := sampleBinomial(sim.rng, segs, path.cfg.LossRate)
	if losses > 0 {
		l.stats.LossEvents++
	}
	// Retransmissions extend the transmission of reliable protocols.
	if l.model.reliable() && losses > 0 {
		wireBytes += float64(losses) * mss
	}
	txTime := time.Duration(wireBytes / rate * float64(time.Second))
	if txTime < time.Nanosecond {
		txTime = time.Nanosecond
	}
	l.model.onTransmit(segs, losses, txTime, l.staticCap())

	l.inflight = m
	l.inflightDropped = !l.model.reliable() && losses > 0
	sim.Post(txTime, l.sentEvt)
}

// sent is the transmission-complete event for the lane's inflight message.
// Inflight state is captured before onSent runs: the callback may Send,
// re-entering maybeStart and restocking the lane.
func (l *lane) sent() {
	m, dropped := l.inflight, l.inflightDropped
	l.inflight = nil
	l.busy = false
	if l.onSent != nil {
		l.onSent(m)
	}
	if dropped {
		l.stats.MsgsDropped++
		l.stats.BytesDropped += int64(m.Size)
		if l.onDrop != nil {
			l.onDrop(m)
		}
	} else {
		sim := l.conn.path.sim
		sim.PostArg(l.conn.path.propagationDelay(), l.deliverEvt, m)
	}
	l.maybeStart()
}

// deliver is the far-end arrival event; the message travels through the
// timer node's argument because several may be propagating at once.
func (l *lane) deliver(arg any) {
	m := arg.(*Message)
	sim := l.conn.path.sim
	m.DeliveredAt = time.Unix(0, sim.NowNanos()).UTC()
	l.stats.MsgsDelivered++
	l.stats.BytesDelivered += int64(m.Size)
	if l.onDeliver != nil {
		l.onDeliver(m)
	}
}

// sampleBinomial draws the number of lost segments out of n with
// per-segment probability p.
func sampleBinomial(rng interface{ Float64() float64 }, n int, p float64) int {
	if p <= 0 {
		return 0
	}
	lost := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			lost++
		}
	}
	return lost
}

// DeliverCallback returns the currently installed delivery callback for
// direction d (nil if none). Harness code uses it to chain additional
// observers without disturbing existing accounting.
func (c *Conn) DeliverCallback(d Dir) func(*Message) { return c.lanes[d].onDeliver }
