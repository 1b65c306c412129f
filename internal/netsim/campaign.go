package netsim

import (
	"fmt"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/vnet"
)

// campaign.go drives large-scale simulation campaigns: up to 10⁶ logical
// endpoints (vnodes) multiplexed onto up to ~10³ simulated hosts joined by
// a gossip, star, or tree host graph. Each endpoint runs an exponential
// send process (optionally with a flash-crowd window), a self-rearming
// heartbeat timer, optional per-peer failure detectors (DetectorFanout
// fixed-period timers each), and a per-message retransmission timeout
// armed at send and checked against delivery when it expires — the
// workload profile that puts 10⁵⁻⁶ timers in flight concurrently and that
// the timer-wheel event core exists for.
//
// Everything here is deterministic: one seeded rand source, events fired
// in (deadline, id) order, and a rolling FNV-1a hash over every event so
// two runs can be checked for byte-identical behaviour by comparing a
// single uint64.

// CampaignConfig parameterises a campaign. Zero values select defaults
// (see withDefaults); Endpoints is rounded down to a multiple of Hosts so
// the id-mod-H vnode placement is uniform.
type CampaignConfig struct {
	// Endpoints is the number of logical endpoints (vnodes).
	Endpoints int
	// Hosts is the number of simulated hosts they are multiplexed onto.
	Hosts int
	// Topology is the host graph: "gossip", "star", or "tree".
	Topology string
	// Degree is the gossip out-degree (forward circulant offsets 1..Degree).
	Degree int
	// Fanout is the tree fanout.
	Fanout int
	// MsgSize is the payload size of every data message.
	MsgSize int
	// Phase is the virtual duration of one RunPhase call.
	Phase time.Duration
	// Seed seeds the single random source.
	Seed int64
	// Arrival shapes the per-endpoint send process.
	Arrival ArrivalConfig
	// Churn shapes endpoint membership churn.
	Churn ChurnConfig
	// HeartbeatInterval is each endpoint's failure-detector tick period.
	HeartbeatInterval time.Duration
	// RetransTimeout is the per-message retransmission timeout, armed at
	// origin send. When it expires the message is checked: if it was not
	// delivered, a timeout is counted (not resent, so event totals stay
	// deterministic). Either way the expiry recycles the message, so the
	// timeout window also bounds the message pool's working set.
	RetransTimeout time.Duration
	// DetectorFanout gives each endpoint that many per-peer failure
	// detectors: fixed-period timers that evaluate the monitored peer's
	// liveness from locally held state (the φ-accrual pattern — evaluation
	// needs no message). 0 disables. This is the workload's pure-timer
	// load: with fanout k, k×Endpoints detector timers are concurrently
	// live, which is what pushes campaigns into the 10⁵⁻⁶ resident-timer
	// regime the wheel is built for.
	DetectorFanout int
	// DetectorInterval is the detector evaluation period (default 500ms
	// when DetectorFanout > 0).
	DetectorInterval time.Duration
	// RecordTrace additionally keeps a textual per-event trace (bounded;
	// for small-scale tests only).
	RecordTrace bool
}

func (cfg CampaignConfig) withDefaults() CampaignConfig {
	if cfg.Hosts < 2 {
		cfg.Hosts = 2
	}
	if cfg.Endpoints <= 0 {
		cfg.Endpoints = 10000
	}
	if cfg.Endpoints < cfg.Hosts {
		cfg.Endpoints = cfg.Hosts
	}
	cfg.Endpoints -= cfg.Endpoints % cfg.Hosts
	if cfg.Topology == "" {
		cfg.Topology = "gossip"
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 8
	}
	if cfg.Degree > cfg.Hosts-1 {
		cfg.Degree = cfg.Hosts - 1
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.MsgSize <= 0 {
		cfg.MsgSize = 256
	}
	if cfg.Phase <= 0 {
		cfg.Phase = 10 * time.Second
	}
	if cfg.Arrival.MeanInterval <= 0 {
		cfg.Arrival.MeanInterval = time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	if cfg.RetransTimeout <= 0 {
		cfg.RetransTimeout = 2 * time.Second
	}
	if cfg.DetectorFanout < 0 {
		cfg.DetectorFanout = 0
	}
	if cfg.DetectorFanout > cfg.Endpoints-1 {
		cfg.DetectorFanout = cfg.Endpoints - 1
	}
	if cfg.DetectorFanout > 0 && cfg.DetectorInterval <= 0 {
		cfg.DetectorInterval = 500 * time.Millisecond
	}
	return cfg
}

// CampaignResult reports one phase of a campaign. Counter fields are
// deltas over the phase; TraceHash, PendingAtEnd, and LiveTimerHWM are the
// campaign-lifetime values at phase end.
type CampaignResult struct {
	// Events is the number of timer callbacks the event core fired.
	Events uint64
	// Sends counts origin sends; Delivered counts final deliveries
	// (including to down endpoints); ForwardHops counts intermediate
	// relays in star/tree topologies; LocalReflects counts intra-host
	// deliveries that bypassed the wire.
	Sends, Delivered, ForwardHops, LocalReflects uint64
	// Timeouts counts retransmission timers that expired before delivery.
	Timeouts uint64
	// HeartbeatTicks and ChurnFlips count those processes' events.
	HeartbeatTicks, ChurnFlips uint64
	// DetectorTicks counts per-peer failure-detector evaluations;
	// Suspicions counts evaluations that found the monitored peer down.
	DetectorTicks, Suspicions uint64
	// DeliveredDown counts deliveries that fell through to the dead-letter
	// handler because the destination vnode was unbound (churned down).
	DeliveredDown uint64
	// PendingAtEnd is the live timer count when the phase ended.
	PendingAtEnd int
	// LiveTimerHWM is the campaign's live-timer high-water mark.
	LiveTimerHWM int
	// TraceHash is the rolling FNV-1a hash over every event so far.
	TraceHash uint64
	// VirtualDuration is the phase length in virtual time.
	VirtualDuration time.Duration
}

// endpoint is one logical vnode's state.
type endpoint struct {
	id   uint64
	sent uint32
	recv uint32
	up   bool
}

// detector is one endpoint's failure detector for one monitored peer. Its
// timer rides PostArg with a pointer into the campaign's detector slab as
// the argument, so the steady detector load allocates nothing. The fields
// are uint32 deliberately: detectors fire in essentially random slab
// order, so at fanout×10⁵⁻⁶ entries every byte of the struct is a byte of
// cache-miss bandwidth on the campaign's hottest event path.
type detector struct {
	owner uint32
	peer  uint32
}

// Campaign is an instantiated workload ready to run in phases.
type Campaign struct {
	cfg     CampaignConfig
	sim     *Sim
	topo    *topology
	muxes   []*vnet.DenseHostMux
	eps     []endpoint
	dets    []detector
	upBits  []uint64 // endpoint liveness bitset; see onDetector
	epochNS int64

	// Shared event callbacks, bound once: the steady-state event cycle
	// creates no closures.
	sendEvt    func(any)
	hbEvt      func(any)
	detEvt     func(any)
	recvEvt    func(uint64, any)
	deadLetter func(uint64, any)
	churnEvt   func()
	timeoutEvt func(any)

	nextMsgID uint64

	sends, delivered, forwards, reflects uint64
	timeouts, hbTicks, churnFlips, down  uint64
	detTicks, suspects                   uint64

	traceHash uint64
	trace     []string
}

const campaignTraceCap = 1 << 17

// NewCampaign builds the topology, binds every vnode into its host's mux,
// and primes the arrival, heartbeat, and churn processes. Virtual time
// does not move until RunPhase.
func NewCampaign(cfg CampaignConfig) *Campaign {
	cfg = cfg.withDefaults()
	c := &Campaign{
		cfg:       cfg,
		sim:       NewSim(cfg.Seed),
		traceHash: fnvOffset,
	}
	c.epochNS = c.sim.epoch.UnixNano()
	var kind topoKind
	switch cfg.Topology {
	case "gossip":
		kind = topoGossip
	case "star":
		kind = topoStar
	case "tree":
		kind = topoTree
	default:
		panic(fmt.Sprintf("netsim: unknown campaign topology %q", cfg.Topology))
	}
	c.topo = buildTopology(c.sim, kind, cfg.Hosts, cfg.Degree, cfg.Fanout)

	c.sendEvt = c.onSendTick
	c.hbEvt = c.onHeartbeat
	c.detEvt = c.onDetector
	c.churnEvt = c.onChurn
	c.timeoutEvt = c.onTimeout
	c.recvEvt = func(v uint64, _ any) { c.eps[v].recv++ }
	c.deadLetter = func(uint64, any) { c.down++ }

	// Vnode ids are assigned round-robin across hosts (host = id mod H),
	// so id/H is a perfect dense slot index within each host's mux.
	hosts := uint64(cfg.Hosts)
	slotOf := func(v uint64) int { return int(v / hosts) }
	c.muxes = make([]*vnet.DenseHostMux, cfg.Hosts)
	for h := range c.muxes {
		c.muxes[h] = vnet.NewDenseHostMux(cfg.Endpoints/cfg.Hosts, slotOf, c.deadLetter)
	}
	c.eps = make([]endpoint, cfg.Endpoints)
	c.upBits = make([]uint64, (cfg.Endpoints+63)/64)
	for i := range c.eps {
		c.eps[i] = endpoint{id: uint64(i), up: true}
		c.upBits[i>>6] |= 1 << (uint(i) & 63)
		c.muxes[i%cfg.Hosts].Bind(uint64(i), c.recvEvt)
	}

	c.topo.eachLane(func(conn *Conn, d Dir, recvHost int) {
		conn.OnDeliver(d, func(m *Message) { c.arrive(recvHost, m) })
	})

	rng := c.sim.Rand()
	for i := range c.eps {
		c.sim.PostArg(c.cfg.Arrival.nextInterval(rng, 0), c.sendEvt, &c.eps[i])
		c.sim.PostArg(time.Duration(rng.Int63n(int64(cfg.HeartbeatInterval))), c.hbEvt, &c.eps[i])
	}
	if f := cfg.DetectorFanout; f > 0 {
		// Each endpoint monitors f peers: its forward ring neighbours under
		// gossip (the peers it actually exchanges traffic with), otherwise f
		// random distinct peers. One staggered fixed-period timer each.
		total := uint64(cfg.Endpoints)
		c.dets = make([]detector, 0, cfg.Endpoints*f)
		for i := range c.eps {
			for j := 0; j < f; j++ {
				var peer uint64
				if kind == topoGossip {
					peer = (uint64(i) + uint64(j) + 1) % total
				} else {
					peer = (uint64(i) + 1 + uint64(rng.Intn(cfg.Endpoints-1))) % total
				}
				c.dets = append(c.dets, detector{owner: uint32(i), peer: uint32(peer)})
				d := &c.dets[len(c.dets)-1]
				c.sim.PostArg(time.Duration(rng.Int63n(int64(cfg.DetectorInterval))), c.detEvt, d)
			}
		}
	}
	if cfg.Churn.MeanFlipInterval > 0 {
		c.sim.Post(cfg.Churn.nextFlip(rng), c.churnEvt)
	}
	return c
}

// Config returns the effective configuration after defaulting.
func (c *Campaign) Config() CampaignConfig { return c.cfg }

// Sim exposes the underlying simulator (tests and harnesses).
func (c *Campaign) Sim() *Sim { return c.sim }

// Trace returns the recorded textual trace (RecordTrace only).
func (c *Campaign) Trace() []string { return c.trace }

// RunPhase advances virtual time by one configured Phase, firing every due
// event, and returns that phase's results. Phases are cumulative: state,
// pools, and the trace hash carry over, which is exactly what the flat-RSS
// acceptance check leans on — a second phase must not grow the footprint
// the first phase established.
func (c *Campaign) RunPhase() CampaignResult {
	clk := c.sim.Clock()
	e0, s0, d0 := clk.FiredTimers(), c.sends, c.delivered
	f0, r0, t0 := c.forwards, c.reflects, c.timeouts
	h0, c0, dn0 := c.hbTicks, c.churnFlips, c.down
	dt0, su0 := c.detTicks, c.suspects
	clk.AdvanceTo(c.sim.Now().Add(c.cfg.Phase))
	return CampaignResult{
		Events:          clk.FiredTimers() - e0,
		Sends:           c.sends - s0,
		Delivered:       c.delivered - d0,
		ForwardHops:     c.forwards - f0,
		LocalReflects:   c.reflects - r0,
		Timeouts:        c.timeouts - t0,
		HeartbeatTicks:  c.hbTicks - h0,
		ChurnFlips:      c.churnFlips - c0,
		DetectorTicks:   c.detTicks - dt0,
		Suspicions:      c.suspects - su0,
		DeliveredDown:   c.down - dn0,
		PendingAtEnd:    clk.PendingTimers(),
		LiveTimerHWM:    clk.HighWaterTimers(),
		TraceHash:       c.traceHash,
		VirtualDuration: c.cfg.Phase,
	}
}

// Event codes for the trace hash.
const (
	evSend = iota + 1
	evDeliver
	evTimeout
	evChurn
	evHeartbeat
	evForward
	evReflect
	evProbe
)

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mark folds one event into the rolling trace hash (and the textual trace
// when recording). Hashing (instant, code, a, b) for every event makes the
// hash a full behavioural fingerprint: any divergence in event order,
// timing, or payload between two runs changes it. The fold is FNV-1a
// widened to whole 64-bit words — one xor-multiply per word instead of
// per byte, because this runs a few times per simulated event.
func (c *Campaign) mark(nowNS int64, code, a, b uint64) {
	h := c.traceHash
	h = (h ^ uint64(nowNS)) * fnvPrime
	h = (h ^ code) * fnvPrime
	h = (h ^ a) * fnvPrime
	h = (h ^ b) * fnvPrime
	c.traceHash = h
	if c.cfg.RecordTrace && len(c.trace) < campaignTraceCap {
		c.trace = append(c.trace, fmt.Sprintf("%d c%d a%d b%d", nowNS, code, a, b))
	}
}

// msgDelivered is the sentinel finalDeliver leaves in Message.Meta so the
// retransmission expiry can tell delivered messages from lost ones.
var msgDelivered any = new(byte)

// onSendTick fires on an endpoint's arrival process: send if up, then
// rearm. Down endpoints keep ticking without sending, so churn changes
// traffic but never the timer population.
func (c *Campaign) onSendTick(arg any) {
	ep := arg.(*endpoint)
	nowNS := c.sim.clk.NowNanos()
	if ep.up {
		c.send(ep, nowNS)
	}
	c.sim.PostArg(c.cfg.Arrival.nextInterval(c.sim.rng, time.Duration(nowNS-c.epochNS)), c.sendEvt, ep)
}

// send originates one data message from ep to a topology-dependent
// destination vnode.
func (c *Campaign) send(ep *endpoint, nowNS int64) {
	hosts := uint64(c.cfg.Hosts)
	total := uint64(len(c.eps))
	var dst uint64
	var conn *Conn
	var dir Dir
	srcHost := int(ep.id % hosts)
	if c.topo.kind == topoGossip {
		// Gossip to one of the k forward ring neighbours; the matching
		// host edge exists by construction (endpoints ≡ id mod H).
		j := c.sim.rng.Intn(c.cfg.Degree)
		dst = (ep.id + uint64(j) + 1) % total
		conn, dir = c.topo.conns[srcHost*c.cfg.Degree+j], AtoB
	} else {
		// Pub/sub style: a uniformly random other endpoint, routed via
		// the hub (star) or hop-by-hop (tree).
		dst = (ep.id + 1 + uint64(c.sim.rng.Intn(len(c.eps)-1))) % total
	}
	m := c.sim.AcquireMessage()
	c.nextMsgID++
	m.ID = c.nextMsgID
	m.Size = c.cfg.MsgSize
	m.Kind = DataKind
	m.SrcVNode = ep.id
	m.DstVNode = dst
	ep.sent++
	c.sends++
	c.mark(nowNS, evSend, ep.id, dst)

	// The expiry event owns the message's release, so it is armed for
	// every send — including local reflections, which can never time out.
	c.sim.PostArg(c.cfg.RetransTimeout, c.timeoutEvt, m)

	dstHost := int(dst % hosts)
	if dstHost == srcHost {
		// Intra-host vnode traffic reflects locally, without touching the
		// wire (§III-B).
		c.reflects++
		c.mark(nowNS, evReflect, m.ID, dst)
		m.DeliveredAt = time.Unix(0, nowNS).UTC()
		c.finalDeliver(dstHost, m)
		return
	}
	if conn == nil {
		conn, dir, _ = c.topo.next(srcHost, dstHost)
	}
	conn.Send(dir, m)
}

// arrive handles a wire delivery at recvHost: final-deliver or relay. The
// lane stamped m.DeliveredAt with the current instant just before calling.
func (c *Campaign) arrive(recvHost int, m *Message) {
	dstHost := int(m.DstVNode % uint64(c.cfg.Hosts))
	if dstHost == recvHost {
		c.finalDeliver(dstHost, m)
		return
	}
	c.forwards++
	c.mark(m.DeliveredAt.UnixNano(), evForward, m.ID, uint64(recvHost))
	conn, dir, _ := c.topo.next(recvHost, dstHost)
	conn.Send(dir, m)
}

// finalDeliver dispatches the message through the destination host's vnode
// mux and marks it delivered for its pending retransmission expiry (which
// recycles it).
func (c *Campaign) finalDeliver(dstHost int, m *Message) {
	c.delivered++
	c.mark(m.DeliveredAt.UnixNano(), evDeliver, m.ID, m.DstVNode)
	c.muxes[dstHost].Dispatch(m.DstVNode, m)
	m.Meta = msgDelivered
}

// onTimeout is a message's retransmission expiry: count it if the message
// never arrived, then recycle the message either way.
func (c *Campaign) onTimeout(arg any) {
	m := arg.(*Message)
	if m.Meta != msgDelivered {
		c.timeouts++
		c.mark(c.sim.clk.NowNanos(), evTimeout, m.ID, m.DstVNode)
	}
	c.sim.ReleaseMessage(m)
}

// onHeartbeat is an endpoint's liveness-advertisement tick: count and
// rearm.
func (c *Campaign) onHeartbeat(arg any) {
	ep := arg.(*endpoint)
	c.hbTicks++
	c.mark(c.sim.clk.NowNanos(), evHeartbeat, ep.id, 0)
	c.sim.PostArg(c.cfg.HeartbeatInterval, c.hbEvt, ep)
}

// onDetector is one per-peer failure-detector evaluation: read the
// monitored peer's liveness from local state (φ-accrual style — no message
// is exchanged to evaluate), count a suspicion if it is down, and rearm
// the fixed-period timer. With DetectorFanout k this is the campaign's
// dominant event class — k timers per endpoint, resident the whole run.
func (c *Campaign) onDetector(arg any) {
	d := arg.(*detector)
	c.detTicks++
	// Liveness comes from the upBits bitset, not the endpoint structs:
	// detectors probe random peers, and the bitset keeps the entire
	// liveness map L1-resident where the endpoint array would take a
	// cache miss per evaluation.
	peer := uint64(d.peer)
	var suspect uint64
	if c.upBits[peer>>6]>>(peer&63)&1 == 0 {
		c.suspects++
		suspect = 1
	}
	c.mark(c.sim.clk.NowNanos(), evProbe, uint64(d.owner), peer<<1|suspect)
	c.sim.PostArg(c.cfg.DetectorInterval, c.detEvt, d)
}

// onChurn flips one random endpoint between up and down, rebinding or
// unbinding it from its host mux, then rearms.
func (c *Campaign) onChurn() {
	idx := c.sim.rng.Intn(len(c.eps))
	ep := &c.eps[idx]
	mux := c.muxes[idx%c.cfg.Hosts]
	if ep.up {
		ep.up = false
		c.upBits[idx>>6] &^= 1 << (uint(idx) & 63)
		mux.Unbind(ep.id)
	} else {
		ep.up = true
		c.upBits[idx>>6] |= 1 << (uint(idx) & 63)
		mux.Bind(ep.id, c.recvEvt)
	}
	c.churnFlips++
	c.mark(c.sim.clk.NowNanos(), evChurn, ep.id, uint64(idx))
	c.sim.Post(c.cfg.Churn.nextFlip(c.sim.rng), c.churnEvt)
}
