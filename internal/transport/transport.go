// Package transport implements the wire layer of the middleware — the role
// Netty plays for the JVM implementation (§II-B): listeners and framed
// streams for TCP and UDT, datagrams for UDP, and a registry of outgoing
// channels created lazily per (destination, protocol) pair.
//
// Messages queue while a channel is being established ("messages delayed
// until the requested channels are available", §III-C) and channels stay
// open once created — the paper is deliberately conservative about
// reclaiming them because re-establishment can be expensive.
package transport

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
	"github.com/kompics/kompicsmessaging-go/internal/udt"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// Errors returned through send notifications.
var (
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrTooLarge reports a payload over the frame/datagram limit.
	ErrTooLarge = errors.New("transport: payload too large")
	// ErrUnsupported reports a protocol the endpoint does not listen on
	// or cannot dial.
	ErrUnsupported = errors.New("transport: unsupported protocol")
	// ErrQueueFull reports an arriving message rejected because the
	// destination's pending queue was at MaxPendingPerPeer. Shedding is
	// always through the normal notify path — never a silent drop — so a
	// peer outage cannot grow memory without bound. Pending-queue drops
	// carry a typed *ErrDropped; queue-pressure ones unwrap to this error.
	ErrQueueFull = errors.New("transport: pending queue full")
)

// maxUDPPayload bounds datagrams; IPv4 UDP caps near 65507 and we leave
// room for middleware headers.
const maxUDPPayload = 63 << 10

// UDTPortOffset is the wire convention for UDT: a node's UDT listener
// binds its listen port + UDTPortOffset, because raw UDP and UDT (which
// runs over UDP) cannot share one UDP port. Dialers shift UDT
// destinations by the same offset, and UDT→TCP fallback un-shifts it.
// Port 0 (ephemeral; tests query Addr for the real binding) is never
// shifted.
const UDTPortOffset = 1

// Config parameterises an Endpoint.
type Config struct {
	// ListenAddr is the base "host:port" to bind. The same port number
	// is used for every enabled protocol (TCP, UDP and UDT can share a
	// port number, as UDT runs over UDP).
	ListenAddr string
	// Protocols enables listeners; defaults to TCP, UDP and UDT.
	Protocols []wire.Transport
	// DialTimeout bounds outgoing connection establishment (default 5 s).
	DialTimeout time.Duration
	// UDT tunes the UDT transport; its HandshakeTimeout defaults to
	// DialTimeout.
	UDT udt.Config
	// MaxPendingPerPeer bounds the messages queued per (protocol,
	// destination) channel while it connects or redials (default 4096).
	// At the bound, queued messages past their QoS deadline are swept
	// out, and a send that still does not fit fails with ErrQueueFull
	// through notify (see policy.go).
	MaxPendingPerPeer int
	// MaxDialAttempts is how many consecutive dial failures a channel
	// tolerates before giving up and failing its queue (default 3). A UDT
	// channel first falls back to TCP and gets as many attempts there.
	MaxDialAttempts int
	// RedialBackoff is the base delay between dial attempts; each
	// attempt doubles it up to RedialBackoffMax, and the actual wait is
	// jittered to [d/2, d) (defaults 100 ms / 3 s).
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// BackoffSeed seeds the jitter PRNG so supervision timing replays
	// deterministically (default 1).
	BackoffSeed int64
	// Clock schedules redial backoff (default clock.Real). Tests inject
	// clock.Virtual to script outage/recovery without real waiting.
	Clock clock.Clock
	// Sockets opens the endpoint's listeners and outgoing connections
	// (default NetSockets). Tests pass a wrapper that injects failures
	// (internal/faults).
	Sockets Sockets
	// OnStatus, when non-nil, observes channel supervision transitions
	// (up/down/retry/fallback). Called from channel goroutines outside
	// endpoint locks; implementations must be goroutine-safe and fast.
	OnStatus func(StatusEvent)
	// OnMessage receives every inbound payload and is required. Both the
	// framed (TCP/UDT) and the datagram (UDP) paths call it under one
	// contract:
	//
	//   - It is called from transport goroutines (one read loop per
	//     stream connection, one for the UDP socket); implementations
	//     must be goroutine-safe. A slow callback applies backpressure
	//     to its own connection only — frames from other peers arrive on
	//     other goroutines.
	//   - Ownership of the payload buffer (drawn from bufpool) passes to
	//     the callback at the call: once done with the bytes it must
	//     return them with bufpool.Put exactly once, and it must not
	//     touch the slice after Put. Dropping a buffer is memory-safe
	//     but costs a future allocation.
	//   - from identifies the origin; payloads sharing a From arrive in
	//     wire order, and consumers that process messages concurrently
	//     must preserve that per-(Proto, Peer) FIFO themselves.
	OnMessage func(from From, payload []byte)
	// Logger receives connection-level diagnostics (default slog.Default).
	Logger *slog.Logger
}

// Sockets opens every socket an Endpoint uses; the transport's protocol
// logic runs over whatever it returns. Config.Sockets nil means
// NetSockets. An implementation may wrap the sockets it opens (fault
// injection does), or open simulated ones: a datagram socket must report
// *net.UDPAddr addresses, and its reads must fail with net.ErrClosed once
// it is closed. Sockets of the net package's concrete types keep their
// fast paths: vectored writes on a *net.TCPConn, batched syscalls for UDT
// on a *net.UDPConn.
type Sockets interface {
	// Listen opens the TCP listener on addr.
	Listen(addr string) (net.Listener, error)
	// ListenPacket opens a datagram socket bound to addr: the UDP
	// listener (proto UDP), or the socket UDT listens on (proto UDT).
	ListenPacket(proto wire.Transport, addr string) (net.PacketConn, error)
	// Dial opens a connection to addr within timeout: a TCP stream, or a
	// connected datagram socket for UDP and for a UDT connection, which
	// owns it.
	Dial(proto wire.Transport, addr string, timeout time.Duration) (net.Conn, error)
}

// NetSockets opens real sockets with the net package.
type NetSockets struct{}

// Listen implements Sockets.
func (NetSockets) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// ListenPacket implements Sockets.
func (NetSockets) ListenPacket(_ wire.Transport, addr string) (net.PacketConn, error) {
	return net.ListenPacket("udp", addr)
}

// Dial implements Sockets.
func (NetSockets) Dial(proto wire.Transport, addr string, timeout time.Duration) (net.Conn, error) {
	if proto == wire.TCP {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return net.DialTimeout("udp", addr, timeout)
}

func (c Config) withDefaults() Config {
	if len(c.Protocols) == 0 {
		c.Protocols = []wire.Transport{wire.TCP, wire.UDP, wire.UDT}
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.UDT.HandshakeTimeout <= 0 {
		c.UDT.HandshakeTimeout = c.DialTimeout
	}
	if c.MaxPendingPerPeer <= 0 {
		c.MaxPendingPerPeer = 4096
	}
	if c.MaxDialAttempts <= 0 {
		c.MaxDialAttempts = 3
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 100 * time.Millisecond
	}
	if c.RedialBackoffMax <= 0 {
		c.RedialBackoffMax = 3 * time.Second
	}
	if c.BackoffSeed == 0 {
		c.BackoffSeed = 1
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Sockets == nil {
		c.Sockets = NetSockets{}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Endpoint owns this host's listeners and outgoing channels. One Endpoint
// backs one wire.Network component.
//
// Outgoing channels and the backoff PRNG live in one mutex-guarded
// registry (see registry.go); inbound connections live in one set (see
// inbound.go).
type Endpoint struct {
	cfg Config

	tcpLn   net.Listener
	udtLn   *udt.Listener
	udpSock net.PacketConn

	reg     registry
	inbound inboundSet

	// dropCounts aggregates pending-queue drops per (class, reason);
	// written by the channels' drop path, read by DropStats.
	dropCounts [wire.NumClasses][numDropReasons]atomic.Uint64

	// dropWarn throttles the drop-path warn log: under sustained
	// overload every shed message would otherwise emit a line.
	dropWarn *stats.LogLimiter

	wg sync.WaitGroup
}

type chanKey struct {
	proto wire.Transport
	dest  string
}

// NewEndpoint validates cfg and prepares an endpoint; call Start to bind.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.OnMessage == nil {
		return nil, errors.New("transport: Config.OnMessage is required")
	}
	if cfg.ListenAddr == "" {
		return nil, errors.New("transport: Config.ListenAddr is required")
	}
	for _, p := range cfg.Protocols {
		if !p.Wire() {
			return nil, fmt.Errorf("%w: %v", ErrUnsupported, p)
		}
	}
	cfg = cfg.withDefaults()
	return &Endpoint{
		cfg: cfg,
		reg: registry{
			channels: make(map[chanKey]*outChannel),
			rng:      rand.New(rand.NewSource(cfg.BackoffSeed)),
		},
		inbound:  inboundSet{conns: make(map[*inConn]struct{})},
		dropWarn: stats.NewLogLimiter(cfg.Clock, dropWarnBurst, dropWarnRefillPerSec),
	}, nil
}

// Start binds the configured listeners.
func (e *Endpoint) Start() error {
	for _, p := range e.cfg.Protocols {
		var err error
		switch p {
		case wire.TCP:
			err = e.startTCP()
		case wire.UDP:
			err = e.startUDP()
		case wire.UDT:
			err = e.startUDT()
		}
		if err != nil {
			e.Close()
			return fmt.Errorf("transport: starting %v listener: %w", p, err)
		}
	}
	return nil
}

// Addr returns the bound address for proto, or the empty string when the
// protocol is not listening. Useful with port 0 (ephemeral) in tests.
func (e *Endpoint) Addr(proto wire.Transport) string {
	switch {
	case proto == wire.TCP && e.tcpLn != nil:
		return e.tcpLn.Addr().String()
	case proto == wire.UDP && e.udpSock != nil:
		return e.udpSock.LocalAddr().String()
	case proto == wire.UDT && e.udtLn != nil:
		return e.udtLn.Addr().String()
	}
	return ""
}

// Close tears down listeners and channels; it is idempotent. Pending
// notifications fail with ErrClosed. The outgoing registry is marked
// closed (no new channels, sends fail) before any channel is torn down,
// and the inbound set refuses registrations before its connections are
// closed, so shutdown stays deterministic regardless of which peers were
// active.
func (e *Endpoint) Close() {
	e.reg.mu.Lock()
	if e.reg.closed {
		e.reg.mu.Unlock()
		return
	}
	e.reg.closed = true
	chans := make([]*outChannel, 0, len(e.reg.channels))
	for _, c := range e.reg.channels {
		chans = append(chans, c)
	}
	e.reg.channels = map[chanKey]*outChannel{}
	e.reg.mu.Unlock()

	e.inbound.closeAll()

	if e.tcpLn != nil {
		e.tcpLn.Close()
	}
	if e.udtLn != nil {
		e.udtLn.Close()
	}
	if e.udpSock != nil {
		e.udpSock.Close()
	}
	for _, c := range chans {
		c.close(ErrClosed)
	}
	e.wg.Wait()
}

// Send queues payload for dest over proto. notify, if non-nil, is invoked
// exactly once with the write outcome (nil after the payload reached the
// socket — the middleware's at-most-once "sent" signal, not an
// end-to-end acknowledgement).
//
// Ownership of payload transfers to the endpoint: after the outcome is
// decided (notify fires, or would have) the buffer is recycled into
// bufpool, so callers must not reuse it and must pass a distinct buffer
// per Send (no broadcasting one slice to several destinations).
func (e *Endpoint) Send(proto wire.Transport, dest string, payload []byte, notify func(error)) {
	e.SendQoS(proto, dest, payload, wire.QoS{}, notify)
}

// SendQoS is Send with a per-message QoS annotation. The annotation rides
// with the message into the pending queue, which acts on it: Class scopes
// coalescing and the drop accounting, Key enables latest-value-wins
// replacement, Deadline arms deadline expiry. A zero QoS makes SendQoS
// exactly Send.
func (e *Endpoint) SendQoS(proto wire.Transport, dest string, payload []byte, qos wire.QoS, notify func(error)) {
	fail := func(err error) {
		if notify != nil {
			notify(err)
		}
		bufpool.Put(payload)
	}
	if !proto.Wire() {
		fail(fmt.Errorf("%w: %v", ErrUnsupported, proto))
		return
	}
	if len(payload) > codec.DefaultMaxFrame || (proto == wire.UDP && len(payload) > maxUDPPayload) {
		fail(fmt.Errorf("%w: %d bytes over %v", ErrTooLarge, len(payload), proto))
		return
	}
	e.reg.mu.Lock()
	if e.reg.closed {
		e.reg.mu.Unlock()
		fail(ErrClosed)
		return
	}
	ch := e.channelLocked(proto, dest)
	e.reg.mu.Unlock()
	ch.enqueue(outMsg{payload: payload, qos: qos, notify: notify})
}

// channelLocked returns the out-channel for (proto, dest), creating it
// (and its run goroutine) on first use. Caller holds e.reg.mu.
func (e *Endpoint) channelLocked(proto wire.Transport, dest string) *outChannel {
	key := chanKey{proto: proto, dest: dest}
	ch, ok := e.reg.channels[key]
	if !ok {
		ch = newOutChannel(e, key)
		e.reg.channels[key] = ch
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			ch.run()
		}()
	}
	return ch
}

// dropChannel removes a failed channel so the next Send redials.
func (c *outChannel) dropChannel() {
	r := &c.ep.reg
	r.mu.Lock()
	if r.channels[c.key] == c {
		delete(r.channels, c.key)
	}
	r.mu.Unlock()
}

// --- listeners -----------------------------------------------------------------

func (e *Endpoint) startTCP() error {
	ln, err := e.cfg.Sockets.Listen(e.cfg.ListenAddr)
	if err != nil {
		return err
	}
	e.tcpLn = ln
	e.serve(wire.TCP, ln.Accept)
	return nil
}

func (e *Endpoint) startUDT() error {
	addr, err := OffsetPort(e.cfg.ListenAddr, UDTPortOffset)
	if err != nil {
		return err
	}
	sock, err := e.cfg.Sockets.ListenPacket(wire.UDT, addr)
	if err != nil {
		return err
	}
	e.udtLn = udt.NewListener(sock, e.cfg.UDT)
	e.serve(wire.UDT, e.udtLn.Accept)
	return nil
}

// serve runs a stream listener's accept loop: each accepted connection
// gets its own read goroutine, until accept fails (the listener closed).
func (e *Endpoint) serve(proto wire.Transport, accept func() (net.Conn, error)) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := accept()
			if err != nil {
				return
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.readFrames(proto, conn)
			}()
		}
	}()
}

func (e *Endpoint) startUDP() error {
	sock, err := e.cfg.Sockets.ListenPacket(wire.UDP, e.cfg.ListenAddr)
	if err != nil {
		return err
	}
	e.udpSock = sock
	udp, _ := sock.(*net.UDPConn)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		buf := make([]byte, maxUDPPayload+1)
		// peers caches the source-address string per sender so the hot
		// loop does not re-format (and re-allocate) it per datagram.
		// Owned by this goroutine only; no lock.
		peers := make(map[netip.AddrPort]string)
		for {
			n, src, err := readDatagram(udp, sock, buf)
			if err != nil {
				return
			}
			if n == 0 || n > maxUDPPayload {
				continue
			}
			peer, ok := peers[src]
			if !ok {
				peer = src.String()
				if len(peers) >= maxUDPPeerCache {
					peers = make(map[netip.AddrPort]string)
				}
				peers[src] = peer
			}
			// Hand a pooled copy up; the consumer owns it (and returns
			// it to bufpool) while this goroutine reuses buf.
			payload := bufpool.Get(n)
			copy(payload, buf[:n])
			e.cfg.OnMessage(From{Proto: wire.UDP, Peer: peer}, payload)
		}
	}()
	return nil
}

// readDatagram reads one datagram into buf: straight from udp when the
// socket is a *net.UDPConn, which reads the source without allocating a
// *net.UDPAddr, and otherwise through sock into a pooled copy. buf never
// reaches an interface call, so the read loop's 64 KiB buffer stays on
// its goroutine's stack instead of costing a heap allocation per
// endpoint start.
func readDatagram(udp *net.UDPConn, sock net.PacketConn, buf []byte) (int, netip.AddrPort, error) {
	if udp != nil {
		return udp.ReadFromUDPAddrPort(buf)
	}
	b := bufpool.Get(len(buf))
	defer bufpool.Put(b)
	n, src, err := sock.ReadFrom(b)
	ua, _ := src.(*net.UDPAddr)
	return copy(buf, b[:n]), ua.AddrPort(), err
}

// maxUDPPeerCache bounds the UDP read loop's source-address string cache;
// past it the cache resets, trading one formatting allocation per sender
// for a bounded footprint under address churn.
const maxUDPPeerCache = 1 << 14

// readFrames pumps length-prefixed frames from an inbound stream
// connection to the message callback until the stream ends or the
// endpoint closes. The connection is in the inbound set for its whole
// life; per-frame accounting is on its own atomics.
//
// TCP reads go through one frame buffer per connection, so a read(2)
// brings in up to 32 KiB of frames instead of costing two per frame. UDT
// stays unbuffered: its Read is a copy out of the userspace receive ring,
// not a syscall, so a buffer would only add a copy.
func (e *Endpoint) readFrames(proto wire.Transport, conn net.Conn) {
	ic, ok := e.inbound.add(proto, conn)
	if !ok {
		conn.Close()
		return
	}
	defer func() {
		e.inbound.remove(ic)
		conn.Close()
	}()
	var r io.Reader = conn
	if proto == wire.TCP {
		r = codec.NewFrameReader(conn)
	}
	for {
		payload, err := codec.ReadFrame(r, codec.DefaultMaxFrame)
		if err != nil {
			return
		}
		size := len(payload)
		// Count after delivery, so totals never run ahead of the callback.
		e.cfg.OnMessage(ic.from, payload)
		ic.frames.Add(1)
		ic.bytes.Add(uint64(size))
	}
}

// --- outgoing channels -----------------------------------------------------------

type outMsg struct {
	payload []byte
	// qos is the message's annotation, read by the pending queue while
	// the message waits (and echoed in *ErrDropped if it is shed).
	qos    wire.QoS
	notify func(error)
}

// release decides m's outcome: the notification fires (if requested) and
// the payload buffer — owned by the endpoint since Send — returns to the
// pool. Exactly one release happens per queued message.
func (m outMsg) release(err error) {
	if m.notify != nil {
		m.notify(err)
	}
	bufpool.Put(m.payload)
}

// maxCoalesce bounds the bytes packed into one coalesced stream write.
// Larger drained batches go out as several sequential writes. 256 kB
// keeps pool buffers in the top size classes while amortising syscalls
// across dozens of typical 65 kB chunks or thousands of small messages.
const maxCoalesce = 256 << 10

// maxIdleQueueCap bounds the capacity retained by a drained pending queue
// or batch scratch slice, so one burst does not pin memory forever.
const maxIdleQueueCap = 1024

// outChannel serialises writes to one (destination, protocol) pair on a
// dedicated goroutine, dialing lazily on first use. The run loop drains
// the whole queue per wakeup and coalesces it into as few socket writes
// as possible (Netty-style flush batching), preserving per-message notify
// order.
type outChannel struct {
	ep  *Endpoint
	key chanKey

	// udpAddr caches the resolved destination for datagram sends from the
	// shared listening socket; written once by run's dial, read only by
	// the same goroutine.
	udpAddr *net.UDPAddr

	// batch is run's reusable drain scratch, only touched by the run
	// goroutine (under mu inside nextBatch).
	batch []outMsg

	mu      sync.Mutex //kmlint:guarded
	cond    *sync.Cond
	pending pendingQueue
	closed  bool
	err     error
	// redialWake is set by the backoff timer to end a redial wait.
	redialWake bool

	// viaTCP, once set by fallBack, is the TCP destination a UDT channel
	// dials instead of its own. Only the run goroutine touches it.
	viaTCP string
}

func newOutChannel(ep *Endpoint, key chanKey) *outChannel {
	c := &outChannel{ep: ep, key: key}
	c.pending.limit = ep.cfg.MaxPendingPerPeer
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *outChannel) enqueue(m outMsg) {
	// The clock is read only for deadlines, and with mu released:
	// clock.Virtual's Advance holds the clock lock while firing timers
	// whose callbacks take channel locks, so Now() under c.mu would
	// invert that order. An undeadlined arrival at a full queue that
	// holds deadlines reads it in a second pass, for the sweep.
	var now int64
	timed := m.qos.Deadline != 0
	if timed {
		now = c.ep.cfg.Clock.Now().UnixNano()
	}
	c.mu.Lock()
	if !timed && c.pending.sweepsAtLimit() {
		c.mu.Unlock()
		now = c.ep.cfg.Clock.Now().UnixNano()
		c.mu.Lock()
	}
	if c.closed {
		err := c.err
		c.mu.Unlock()
		m.release(err)
		return
	}
	displaced, ok := c.pending.push(m, now)
	// The displaced slice is queue scratch, valid only under mu: copy
	// what this call must release before unlocking. One displacement
	// (the common case — a coalesce or a born-dead arrival) stays a
	// value copy; only a multi-message sweep allocates.
	var d0 dropped
	var rest []dropped
	switch len(displaced) {
	case 0:
	case 1:
		d0 = displaced[0]
	default:
		rest = append(rest, displaced...)
	}
	c.mu.Unlock()
	if d0.reason != 0 {
		c.dropOne(d0.msg, d0.reason)
	}
	c.dropMsgs(rest)
	if !ok {
		c.dropOne(m, DropQueueFull)
		return
	}
	c.cond.Signal()
}

// nextBatch blocks until at least one message is queued, then drains the
// entire queue into the channel's reusable batch scratch; ok=false means
// the channel closed. Draining everything per wakeup is what lets the
// writer coalesce — senders that outpace the socket accumulate a batch,
// senders that don't get the old one-message behaviour.
//
// While a queued message carries a deadline the queue is swept first, so
// a message that out-waited its deadline — including across an outage's
// redial backoff — is shed here instead of written; the casualties are
// released outside mu and the queue is looked at again. The timestamp is
// read with mu released (same clock lock-order constraint as enqueue);
// that is safe because only this goroutine drains, so the queue can only
// have grown in between. Without deadlines the clock is never read.
func (c *outChannel) nextBatch() ([]outMsg, bool) {
	c.mu.Lock()
	for {
		for len(c.pending.msgs) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return nil, false
		}
		if c.pending.deadlines == 0 {
			break
		}
		c.mu.Unlock()
		now := c.ep.cfg.Clock.Now().UnixNano()
		c.mu.Lock()
		if c.closed {
			continue
		}
		expired := c.pending.expire(now)
		if len(expired) == 0 {
			break
		}
		// Expired is queue scratch, valid only under mu (a concurrent
		// push may reuse it): copy before unlocking. Expiry sweeps are
		// off the happy path, so the allocation is acceptable.
		drops := append([]dropped(nil), expired...)
		c.mu.Unlock()
		c.dropMsgs(drops)
		c.mu.Lock()
	}
	c.batch = c.pending.drain(c.batch[:0])
	c.mu.Unlock()
	return c.batch, true
}

// releaseBatch clears the drain scratch after its messages have been
// released, bounding retained capacity.
func (c *outChannel) releaseBatch() {
	for i := range c.batch {
		c.batch[i] = outMsg{}
	}
	if cap(c.batch) > maxIdleQueueCap {
		c.batch = nil
	} else {
		c.batch = c.batch[:0]
	}
}

// Drop-path warn throttling: under sustained overload a queue can shed
// thousands of messages per second, so the warn log is a token bucket
// (same shape as core's unsendable-message warn) — one line per burst,
// with the suppressed count carried on the next allowed line.
const (
	dropWarnBurst        = 10
	dropWarnRefillPerSec = 1
)

// dropOne settles one pending-queue drop: the per-(class, reason)
// counter is charged exactly once, notify fires with a typed *ErrDropped,
// the payload returns to bufpool (via release), and a rate-limited warn
// records the shed. Never called under the channel or registry lock —
// notify is a user callback.
func (c *outChannel) dropOne(m outMsg, reason DropReason) {
	e := c.ep
	cls := m.qos.Class
	if !cls.Valid() {
		cls = wire.ClassReliable
	}
	e.dropCounts[cls][reason-1].Add(1)
	m.release(&ErrDropped{
		Reason: reason,
		Class:  m.qos.Class,
		Proto:  c.key.proto,
		Dest:   c.key.dest,
		Limit:  e.cfg.MaxPendingPerPeer,
	})
	if ok, suppressed := e.dropWarn.Allow(); ok {
		e.cfg.Logger.Warn("transport: pending queue dropped message",
			"reason", reason.String(),
			"class", cls.String(),
			"proto", c.key.proto.String(),
			"dest", c.key.dest,
			"suppressed", suppressed)
	}
}

// dropMsgs settles a batch of pending-queue drops.
func (c *outChannel) dropMsgs(drops []dropped) {
	for _, d := range drops {
		c.dropOne(d.msg, d.reason)
	}
}

// close fails all queued messages and stops the run loop.
func (c *outChannel) close(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pending := c.pending.drain(nil)
	c.mu.Unlock()
	c.cond.Broadcast()
	for _, m := range pending {
		m.release(err)
	}
}

// run supervises the channel: dial under capped exponential backoff,
// pump batches while up, and on a write error fall back to redialing —
// the channel stays in the registry so queued and future sends ride
// through the outage. After MaxDialAttempts consecutive dial failures a
// UDT channel falls back to dialing TCP (fallBack) and starts counting
// again; any other channel gives up, failing its queue and leaving the
// registry. Each transition is reported as a StatusEvent, in this order:
// connecting → Up → Down and connecting again (redial, with a Retry per
// failed dial) → Down for good once the attempts are exhausted.
//
// Notify semantics are per message and in queue order: messages that
// fully reached the socket before a mid-batch failure succeed, only the
// unsent tail fails — and a message whose notify already fired is never
// retransmitted across a reconnect (at-most-once is preserved).
func (c *outChannel) run() {
	attempt := 0
	for {
		conn, err := c.dial()
		if err != nil {
			attempt++
			c.ep.cfg.Logger.Warn("transport: dial failed",
				"proto", c.key.proto.String(), "dest", c.key.dest,
				"attempt", attempt, "err", err)
			if attempt < c.ep.cfg.MaxDialAttempts {
				if c.awaitRedial(attempt, err) {
					continue
				}
				return // endpoint closed the channel while it waited
			}
			// Attempts exhausted: degrade UDT to TCP, or give up.
			if c.fallBack(err) {
				attempt = 0
				continue
			}
			c.dropChannel()
			c.emit(StatusEvent{Kind: StatusDown, Err: err})
			c.close(err)
			return
		}
		attempt = 0
		c.mu.Lock()
		wasClosed := c.closed
		c.mu.Unlock()
		if wasClosed { // endpoint shut down mid-dial
			c.closeConn(conn)
			return
		}
		c.emit(StatusEvent{Kind: StatusUp})
		err = c.pump(conn)
		c.closeConn(conn)
		if err == nil {
			return // channel closed while pumping
		}
		c.ep.cfg.Logger.Warn("transport: write failed",
			"proto", c.key.proto.String(), "dest", c.key.dest, "err", err)
		c.emit(StatusEvent{Kind: StatusDown, Err: err})
	}
}

// closeConn closes the channel's connection, if it has one. A close error
// means bytes the connection accepted were not delivered (UDT's linger
// expiring with data unacknowledged), so it is logged; closing a
// connection that a failed write already closed is not.
func (c *outChannel) closeConn(conn net.Conn) {
	if conn == nil {
		return
	}
	if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		proto, dest := c.wireKey()
		c.ep.cfg.Logger.Warn("transport: close failed",
			"proto", proto.String(), "dest", dest, "err", err)
	}
}

// pump drains batches into conn until the channel closes (returns nil)
// or a write fails (returns the error; the unsent tail of the batch has
// been failed, never to be retransmitted).
func (c *outChannel) pump(conn net.Conn) error {
	for {
		batch, ok := c.nextBatch()
		if !ok {
			return nil
		}
		sent, err := c.writeBatch(conn, batch)
		for i := range batch {
			if i < sent {
				batch[i].release(nil)
			} else {
				batch[i].release(err)
			}
		}
		c.releaseBatch()
		if err != nil {
			return err
		}
	}
}

// awaitRedial parks the channel for the attempt's jittered backoff,
// returning false when the channel closed while waiting. The Retry
// status event is emitted after the timer is armed, so an observer
// driving a virtual clock can Advance(NextDelay) on receipt without
// racing the schedule.
func (c *outChannel) awaitRedial(attempt int, dialErr error) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.redialWake = false
	c.mu.Unlock()
	delay := c.backoffDelay(attempt)
	t := c.ep.cfg.Clock.AfterFunc(delay, func() {
		c.mu.Lock()
		c.redialWake = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	c.emit(StatusEvent{Kind: StatusRetry, Attempt: attempt, NextDelay: delay, Err: dialErr})
	c.mu.Lock()
	for !c.redialWake && !c.closed {
		c.cond.Wait()
	}
	closed := c.closed
	c.mu.Unlock()
	t.Stop()
	return !closed
}

// backoffDelay computes the capped exponential backoff for the given
// 1-based attempt — base·2^(attempt-1) clamped to RedialBackoffMax —
// then jitters it to [d/2, d) with the endpoint's seeded PRNG so
// simultaneous redial storms decorrelate.
func (c *outChannel) backoffDelay(attempt int) time.Duration {
	d := c.ep.cfg.RedialBackoff
	for i := 1; i < attempt && d < c.ep.cfg.RedialBackoffMax; i++ {
		d *= 2
	}
	if d > c.ep.cfg.RedialBackoffMax {
		d = c.ep.cfg.RedialBackoffMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + c.ep.reg.jitter(half)
}

// fallBack switches a UDT channel whose dial attempts are exhausted to
// TCP at the un-shifted port (reversing the dialer convention) for the
// rest of the channel's life. Nothing moves: the queue, registry entry,
// writer and backoff stay as they are and only dial changes, so
// per-destination FIFO and at-most-once hold by construction. Returns
// false when there is nothing to fall back to: not a UDT channel, already
// over TCP, or no valid TCP port.
func (c *outChannel) fallBack(dialErr error) bool {
	if c.key.proto != wire.UDT || c.viaTCP != "" {
		return false
	}
	tcpDest, err := OffsetPort(c.key.dest, -UDTPortOffset)
	if err != nil {
		return false
	}
	c.viaTCP = tcpDest
	c.emit(StatusEvent{Kind: StatusFallback, To: wire.TCP, ToDest: tcpDest, Err: dialErr})
	return true
}

// wireKey is the (protocol, destination) the channel actually dials: its
// own key, or TCP at viaTCP after a fallback.
func (c *outChannel) wireKey() (wire.Transport, string) {
	if c.viaTCP != "" {
		return wire.TCP, c.viaTCP
	}
	return c.key.proto, c.key.dest
}

// dial opens the connection to wireKey through the endpoint's Sockets: a
// TCP stream, or a UDT connection over a dialed datagram socket. UDP from
// the listening socket needs none (nil conn) but resolves and caches the
// destination address once, instead of per datagram.
func (c *outChannel) dial() (net.Conn, error) {
	proto, dest := c.wireKey()
	if proto == wire.UDP && c.ep.udpSock != nil {
		var err error
		c.udpAddr, err = net.ResolveUDPAddr("udp", dest)
		return nil, err
	}
	sock, err := c.ep.cfg.Sockets.Dial(proto, dest, c.ep.cfg.DialTimeout)
	if err != nil || proto != wire.UDT {
		return sock, err
	}
	conn, err := udt.Client(sock, c.ep.cfg.UDT)
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// writeBatch sends a drained batch and returns how many of its messages
// fully reached the socket, with the error that stopped the rest (if any).
// Datagram sends stay one syscall per message to preserve message
// boundaries; stream sends are coalesced.
func (c *outChannel) writeBatch(conn net.Conn, batch []outMsg) (int, error) {
	if c.key.proto == wire.UDP {
		for i := range batch {
			var err error
			if conn != nil {
				_, err = conn.Write(batch[i].payload)
			} else {
				_, err = c.ep.udpSock.WriteTo(batch[i].payload, c.udpAddr)
			}
			if err != nil {
				return i, err
			}
		}
		return len(batch), nil
	}
	// A lone large frame on TCP goes out as one writev of header+payload,
	// skipping the staging copy; everything else is coalesced.
	if len(batch) == 1 {
		if tc, ok := conn.(*net.TCPConn); ok {
			if _, err := codec.WriteFrameVectored(tc, batch[0].payload, codec.DefaultMaxFrame); err != nil {
				return 0, err
			}
			return 1, nil
		}
	}
	return writeCoalesced(conn, batch)
}

// writeCoalesced packs the batch's frames into pooled staging buffers of
// at most maxCoalesce bytes and issues one Write per buffer — one syscall
// per drained batch in the common case. On a short or failed write the
// count of fully-flushed messages is reconstructed from the byte count.
// Frame sizes are pre-validated by Send against codec.DefaultMaxFrame.
func writeCoalesced(w io.Writer, batch []outMsg) (int, error) {
	sent := 0
	for sent < len(batch) {
		end, size := sent, 0
		for end < len(batch) {
			fs := codec.FrameHeaderLen + len(batch[end].payload)
			if end > sent && size+fs > maxCoalesce {
				break
			}
			size += fs
			end++
		}
		buf := bufpool.Get(size)[:0]
		for i := sent; i < end; i++ {
			buf = codec.AppendFrame(buf, batch[i].payload)
		}
		n, err := w.Write(buf)
		bufpool.Put(buf)
		if err != nil {
			for i := sent; i < end; i++ {
				fs := codec.FrameHeaderLen + len(batch[i].payload)
				if n < fs {
					break
				}
				n -= fs
				sent++
			}
			return sent, err
		}
		sent = end
	}
	return sent, nil
}

// OffsetPort shifts the port of "host:port" by delta; port 0 (ephemeral)
// is left untouched so tests can bind anywhere and query the real address.
// It fails when the port is not in 0..65535, or when the shifted port
// would leave 1..65535.
func OffsetPort(addr string, delta int) (string, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("transport: bad address %q: %w", addr, err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return "", fmt.Errorf("transport: bad port in %q: %w", addr, err)
	}
	if port == 0 {
		return addr, nil
	}
	shifted := int(port) + delta
	if shifted < 1 || shifted > 65535 {
		return "", fmt.Errorf("transport: port of %q shifted by %d is out of range", addr, delta)
	}
	return net.JoinHostPort(host, strconv.Itoa(shifted)), nil
}
