package core

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/netip"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// NetworkPort is the Kompics network port (listing 1): messages travel in
// both directions, and senders may request delivery notifications.
var NetworkPort = kompics.NewPortType("Network").
	Request((*Msg)(nil)).
	Request(NotifyReq{}).
	Indication((*Msg)(nil)).
	Indication(NotifyResp{})

// NotifyReq asks the network to report a message's send status
// (MessageNotify.Req in the paper). ID correlates the response.
type NotifyReq struct {
	// ID is a caller-chosen correlation token.
	ID uint64
	// Msg is the message to send.
	Msg Msg
}

// NotifyResp reports the outcome of a NotifyReq (MessageNotify.Resp).
// A nil Err means the message was handed to the wire successfully —
// at-most-once semantics, not an end-to-end acknowledgement (§III-B).
type NotifyResp struct {
	// ID echoes the request's correlation token.
	ID uint64
	// Err is nil on success.
	Err error
}

// Sent reports whether the message was sent successfully.
func (r NotifyResp) Sent() bool { return r.Err == nil }

// ErrNoSerializer reports an outgoing message type with no registered
// serialiser.
var ErrNoSerializer = errors.New("core: no serializer registered for message")

// compressedFlag precedes every wire payload: 0 = raw, 1 = compressed.
const (
	wireRaw        byte = 0
	wireCompressed byte = 1
)

// NetworkConfig parameterises the Network component.
type NetworkConfig struct {
	// Self is this host's advertised address. Listeners bind to its
	// port on all interfaces unless ListenAddr overrides it.
	Self Address
	// ListenAddr optionally overrides the bind address ("host:port").
	ListenAddr string
	// Protocols enables listeners (default TCP, UDP, UDT).
	Protocols []Transport
	// Registry supplies message serialisers (default NewRegistry()).
	Registry *codec.Registry
	// Compressor wraps wire payloads (default codec.Flate, mirroring
	// the paper's default-on Snappy handler). Use codec.Noop to disable.
	Compressor codec.Compressor
	// Transport tunes the underlying endpoint (UDT config, frame limit).
	Transport transport.Config
	// Metrics, when set, receives this network's runtime metrics: status
	// transition counters and gauges over the transport's queue depths
	// and inbound registry. Several Network instances (one per node in a
	// soak run) may share one registry, distinguished by MetricsPrefix.
	Metrics *stats.Registry
	// MetricsPrefix namespaces this network's metric names (e.g.
	// "node0."). Empty is fine for a single network per registry.
	MetricsPrefix string
	// Logger receives diagnostics (default slog.Default()).
	Logger *slog.Logger
}

// Network is the middleware component bridging the Kompics runtime and the
// transport layer. It provides NetworkPort; apps connect a required
// NetworkPort to it.
//
// Messages whose destination is the local host are "reflected" back up
// without serialisation (§III-B); everything else is serialised,
// optionally compressed, and handed to the per-(destination, protocol)
// channel, created lazily on first use.
type Network struct {
	cfg        NetworkConfig
	tcfg       transport.Config
	port       *kompics.Port
	statusPort *kompics.Port
	ep         *transport.Endpoint
	ctx        *kompics.Context
	epsMu      sync.Mutex // guards ep swaps across restarts
	// stageLimit is the inflight bound the codec stage is built with at
	// the next start (stageInflight; tests shrink it).
	stageLimit int
	// stage is the parallel codec stage; accessed only on the component
	// thread (created in OnStart, torn down in OnStop/OnKill, consulted in
	// sendMsg), so it needs no lock of its own.
	stage *codecStage
	// sendWarn throttles the dropping-unsendable-message warn, recvWarn
	// the dropping-inbound-message one. Separate buckets, so a peer
	// sending garbage cannot silence send failures.
	sendWarn, recvWarn *stats.LogLimiter
	// dests caches each destination's wire string (wireDest); touched only
	// on the component thread, so it needs no lock.
	dests map[destKey]string
}

// destKey identifies a cached wire destination: an address's IP and port,
// and the protocol, which decides the port offset.
type destKey struct {
	addr  netip.AddrPort
	proto Transport
}

// maxDestCache bounds the destination cache; past it the cache resets,
// trading one formatting per destination for a bounded footprint under
// address churn (the same shape as transport's UDP peer cache).
const maxDestCache = 1 << 14

var _ kompics.Definition = (*Network)(nil)

// NewNetwork validates cfg and creates the component definition; hand it
// to kompics.System.Create.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Self == nil {
		return nil, errors.New("core: NetworkConfig.Self is required")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = cfg.Self.AsSocket()
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Compressor == nil {
		cfg.Compressor = codec.NewFlate(-1)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Transport.Clock == nil {
		cfg.Transport.Clock = clock.Real{}
	}
	return &Network{
		cfg:        cfg,
		stageLimit: stageInflight,
		sendWarn:   stats.NewLogLimiter(cfg.Transport.Clock, warnBurst, warnRefillPerSec),
		recvWarn:   stats.NewLogLimiter(cfg.Transport.Clock, warnBurst, warnRefillPerSec),
	}, nil
}

// Port returns the provided network port, for wiring after Create.
func (n *Network) Port() *kompics.Port { return n.port }

// Addr reports the bound listener address for proto (useful with
// ephemeral ports in tests); empty when not listening.
func (n *Network) Addr(proto Transport) string {
	ep := n.endpoint()
	if ep == nil {
		return ""
	}
	return ep.Addr(proto)
}

func (n *Network) endpoint() *transport.Endpoint {
	n.epsMu.Lock()
	defer n.epsMu.Unlock()
	return n.ep
}

func (n *Network) setEndpoint(ep *transport.Endpoint) {
	n.epsMu.Lock()
	n.ep = ep
	n.epsMu.Unlock()
}

// Init implements kompics.Definition.
func (n *Network) Init(ctx *kompics.Context) {
	n.ctx = ctx
	n.port = ctx.Provides(NetworkPort)
	n.statusPort = ctx.Provides(NetworkStatusPort)

	n.tcfg = n.cfg.Transport
	n.tcfg.ListenAddr = n.cfg.ListenAddr
	if len(n.cfg.Protocols) > 0 {
		n.tcfg.Protocols = n.cfg.Protocols
	}
	n.tcfg.Logger = n.cfg.Logger
	// Supervision events and inbound payloads arrive on transport
	// goroutines and are published from there: Trigger is goroutine-safe
	// and each subscriber's mailbox is FIFO.
	n.tcfg.OnStatus = n.publishStatus
	n.tcfg.OnMessage = n.receive
	// Reject a bad transport config at Create instead of faulting the
	// component at Start.
	if _, err := transport.NewEndpoint(n.tcfg); err != nil {
		panic(fmt.Sprintf("core: invalid transport config: %v", err))
	}

	ctx.Subscribe(n.port, (*Msg)(nil), func(e kompics.Event) {
		n.sendMsg(e.(Msg), 0, false)
	})
	ctx.Subscribe(n.port, NotifyReq{}, func(e kompics.Event) {
		req := e.(NotifyReq)
		n.sendMsg(req.Msg, req.ID, true)
	})
	n.registerMetrics()

	// Endpoints are single-use: each Start builds a fresh one, so the
	// component can be stopped and restarted (listeners re-bind).
	ctx.OnStart(func() {
		ep, err := transport.NewEndpoint(n.tcfg)
		if err != nil {
			panic(fmt.Sprintf("core: transport config: %v", err))
		}
		if err := ep.Start(); err != nil {
			n.cfg.Logger.Error("core: network listeners failed", "err", err)
			panic(err) // faults the component; supervisors see it
		}
		n.setEndpoint(ep)
		n.stage = newCodecStage(n, ep)
	})
	ctx.OnStop(n.stop)
	ctx.OnKill(n.stop)
}

// stop tears down what OnStart built. Runs on the component thread, as
// the OnStop/OnKill handler.
func (n *Network) stop() {
	// Codec stage first: its close waits for in-flight encodes, whose
	// releases still reach the live endpoint and resolve through its
	// notify contract; then the endpoint, whose Close fails what is still
	// queued (each notify triggers its NotifyResp directly, so subscribers
	// get it although this component is stopping) and waits for the read
	// loops — each decodes and triggers a frame before reading the next,
	// so once Close returns no inbound frame is left undelivered.
	if st := n.stage; st != nil {
		n.stage = nil
		st.close()
	}
	if ep := n.endpoint(); ep != nil {
		ep.Close()
	}
}

// receive is every endpoint's OnMessage callback: it decodes one inbound
// payload on the transport goroutine that read it and triggers the
// message on the port from there. Ownership of the pooled payload passes
// here and on to decodeWire, which consumes it. A stream connection has a
// single read goroutine, so its messages reach subscribers' mailboxes in
// wire order; other peers decode in parallel on their own read
// goroutines, and a slow decode stalls only its own connection.
func (n *Network) receive(_ transport.From, payload []byte) {
	m, err := n.decodeWire(payload)
	if err != nil {
		n.warn(n.recvWarn, "core: dropping inbound message", err)
	} else if m != nil { // nil: an empty payload, silently ignored
		n.ctx.Trigger(m, n.port)
	}
}

// sendMsg routes one outgoing message: local reflection, or serialise +
// transport.
func (n *Network) sendMsg(msg Msg, notifyID uint64, wantNotify bool) {
	hdr := msg.Header()
	dst := hdr.Destination()
	if dst == nil {
		n.notify(notifyID, wantNotify, errors.New("core: message has no destination"))
		return
	}
	if n.cfg.Self.SameHostAs(dst) {
		// Local vnode communication: reflect without serialisation. The
		// receiver gets the same message instance — Kompics messages are
		// immutable by convention.
		n.ctx.Trigger(msg, n.port)
		n.notify(notifyID, wantNotify, nil)
		return
	}
	proto := hdr.Protocol()
	if !proto.Wire() {
		n.notify(notifyID, wantNotify,
			fmt.Errorf("core: cannot send %v message without a DATA interceptor", proto))
		return
	}
	dest, err := n.wireDest(dst, proto)
	if err != nil {
		n.notify(notifyID, wantNotify, err)
		return
	}
	if n.stage == nil {
		n.notify(notifyID, wantNotify, errors.New("core: network not started"))
		return
	}
	// The stage encodes off the component thread and hands the payload to
	// Endpoint.SendQoS in per-(proto, dest) submission order, carrying the
	// header's QoS annotation to the transport's pending queue.
	n.stage.submit(msg, proto, dest, HeaderQoS(hdr), notifyID, wantNotify)
}

// wireDest returns the transport's destination string for dst over proto:
// its socket address, shifted to the UDT listener's port for UDT.
// Formatting it costs several allocations (and UDT a parse on top), so
// addresses with an IP form are cached per (ip:port, proto); Address
// requires AsSocket to be rendered from IP and port alone. An address
// without an IP form is formatted every time.
func (n *Network) wireDest(dst Address, proto Transport) (string, error) {
	ip, ok := netip.AddrFromSlice(dst.IP())
	port := dst.Port()
	if !ok || port < 0 || port > math.MaxUint16 {
		return formatDest(dst, proto)
	}
	key := destKey{netip.AddrPortFrom(ip.Unmap(), uint16(port)), proto}
	if dest, ok := n.dests[key]; ok {
		return dest, nil
	}
	dest, err := formatDest(dst, proto)
	if err != nil {
		return "", err
	}
	if n.dests == nil || len(n.dests) >= maxDestCache {
		n.dests = make(map[destKey]string)
	}
	n.dests[key] = dest
	return dest, nil
}

// formatDest renders dst's wire destination for proto from scratch.
func formatDest(dst Address, proto Transport) (string, error) {
	dest := dst.AsSocket()
	if proto == UDT {
		return transport.OffsetPort(dest, transport.UDTPortOffset)
	}
	return dest, nil
}

// The token buckets throttling the send and receive warns: warnBurst
// lines at once, refilled at warnRefillPerSec.
const (
	warnBurst        = 10
	warnRefillPerSec = 1
)

// notify resolves one send: a NotifyResp on the port when the sender
// asked for one, otherwise a rate-limited warn on failure (a dead peer
// under fan-out load fails every message). Callable from any goroutine —
// the component thread, codec workers, and the endpoint's notify
// callbacks, including those Close fires after the component stopped —
// as Trigger is goroutine-safe and the limiter locks.
func (n *Network) notify(id uint64, want bool, err error) {
	if !want {
		if err != nil {
			n.warn(n.sendWarn, "core: dropping unsendable message", err)
		}
		return
	}
	n.ctx.Trigger(NotifyResp{ID: id, Err: err}, n.port)
}

// warn logs msg with err if the token bucket l allows a line now. The
// bucket keeps the logger out of the hot path under a flood, while the
// suppressed count on the next allowed line preserves its magnitude.
func (n *Network) warn(l *stats.LogLimiter, msg string, err error) {
	ok, suppressed := l.Allow()
	switch {
	case !ok:
	case suppressed > 0:
		n.cfg.Logger.Warn(msg, "err", err, "suppressed", suppressed)
	default:
		n.cfg.Logger.Warn(msg, "err", err)
	}
}

// encode serialises and optionally compresses a message into a buffer
// drawn from bufpool. Ownership of the returned slice passes to the
// caller — sendMsg hands it to transport.Send, which recycles it once the
// write outcome is decided. A message whose serialised form would not fit
// one frame uncompressed fails with transport.ErrTooLarge before
// compression, so no receiver is sent what its Decompress would refuse.
func (n *Network) encode(msg Msg) ([]byte, error) {
	scratch := bufpool.GetBuffer()
	scratch.WriteByte(wireRaw)
	if err := n.cfg.Registry.Encode(scratch, msg); err != nil {
		bufpool.PutBuffer(scratch)
		return nil, fmt.Errorf("%w: %T (%v)", ErrNoSerializer, msg, err)
	}
	raw := scratch.Bytes()
	if len(raw) > codec.DefaultMaxFrame {
		bufpool.PutBuffer(scratch)
		return nil, fmt.Errorf("%w: %T serialises to %d bytes", transport.ErrTooLarge, msg, len(raw))
	}
	if _, isNoop := n.cfg.Compressor.(codec.Noop); !isNoop && len(raw)-1 >= minCompressSize && !incompressible(raw[1:]) {
		if packed, ok := n.compress(raw); ok {
			bufpool.PutBuffer(scratch)
			return packed, nil
		}
	}
	// Ship raw: copy out of the pooled scratch so it can be recycled now.
	out := bufpool.Get(len(raw))
	copy(out, raw)
	bufpool.PutBuffer(scratch)
	return out, nil
}

// minCompressSize is the serialised size below which a message ships
// raw without reaching the compressor. Below it DEFLATE's fixed cost per
// call (a block header, code construction, table builds on both sides)
// takes over from what it saves: on word text the CPU per byte saved is
// 2.3–3.1× a 64 KiB message's at 512 B, 3.7× at 256 B and 7.6× at 128 B
// (EXPERIMENTS.md, "small-message floor").
const minCompressSize = 512

// sampleSize is how much of a payload the compressibility probe reads; a
// shorter payload always goes to the compressor.
const sampleSize = 4 << 10

// maxSampleBits is the order-0 entropy, in bits per byte, above which a
// sample is judged incompressible. Random or already compressed bytes read
// ≈ 7.95 over one sample, word text ≈ 4.
const maxSampleBits = 7.5

// incompressible reports whether the first sampleSize bytes of p carry so
// much order-0 entropy that compressing p would not pay: one histogram
// costs microseconds where the compressor costs a millisecond per 64 KiB.
// A misjudged payload only goes out raw or compressed, never altered, and
// compress keeps its own rule of shipping raw what did not shrink.
func incompressible(p []byte) bool {
	if len(p) < sampleSize {
		return false
	}
	var hist [256]int
	for _, b := range p[:sampleSize] {
		hist[b]++
	}
	// H = log2(n) - Σ c·log2(c) / n over the byte counts c of n bytes.
	var sum float64
	for _, c := range hist {
		if c > 0 {
			sum += float64(c) * math.Log2(float64(c))
		}
	}
	return math.Log2(sampleSize)-sum/sampleSize > maxSampleBits
}

// compress attempts to shrink an encoded payload (raw, including its
// leading flag byte). The compressed bytes are written in place after the
// wireCompressed flag in a pooled buffer — no prepend copy. ok=false means
// compression failed or did not help; ship raw.
func (n *Network) compress(raw []byte) ([]byte, bool) {
	ac, fast := n.cfg.Compressor.(codec.AppendCompressor)
	if !fast {
		packed, err := n.cfg.Compressor.Compress(raw[1:])
		if err != nil || len(packed)+1 >= len(raw) {
			return nil, false
		}
		out := bufpool.Get(len(packed) + 1)
		out[0] = wireCompressed
		copy(out[1:], packed)
		return out, true
	}
	dst := bufpool.Get(len(raw))[:1]
	dst[0] = wireCompressed
	out, err := ac.AppendCompress(dst, raw[1:])
	if err != nil || len(out) >= len(raw) {
		// Recycle whichever backing array we ended up with; if the
		// append outgrew dst, dst's original buffer was already dropped
		// by the compressor's internal append.
		if out != nil {
			bufpool.Put(out)
		} else {
			bufpool.Put(dst)
		}
		return nil, false
	}
	if &out[0] != &dst[0] {
		// The compressed form outgrew the initial buffer and was
		// reallocated; return the now-unused original to the pool.
		bufpool.Put(dst)
	}
	return out, true
}

// wireReaderPool recycles the bytes.Reader each inbound decode reads
// through, instead of allocating one per message.
var wireReaderPool = sync.Pool{New: func() interface{} { return new(bytes.Reader) }}

// decodeWire decompresses and decodes one wire payload. A (nil, nil) return
// means an empty payload, which is silently ignored.
//
// Ownership: decodeWire consumes the buffer — this is the "core returns
// transport's pooled buffers after decode" half of the wire-path contract
// (serialisers copy what they keep, so nothing aliases the buffer once
// Decode returns).
func (n *Network) decodeWire(payload []byte) (Msg, error) {
	if len(payload) == 0 {
		bufpool.Put(payload)
		return nil, nil
	}
	body := payload[1:]
	if payload[0] == wireCompressed {
		raw, err := n.cfg.Compressor.Decompress(body)
		if err != nil {
			bufpool.Put(payload)
			return nil, fmt.Errorf("core: undecompressable message: %w", err)
		}
		if len(raw) == 0 || len(body) == 0 || &raw[0] != &body[0] {
			// Fresh buffer from the compressor (Flate draws from
			// bufpool): the wire buffer can be recycled immediately and
			// the decompressed one after decoding. A pass-through
			// compressor aliases body instead, keeping payload live.
			bufpool.Put(payload)
			payload = raw
		}
		body = raw
	}
	r := wireReaderPool.Get().(*bytes.Reader)
	r.Reset(body)
	v, err := n.cfg.Registry.Decode(r)
	r.Reset(nil)
	wireReaderPool.Put(r)
	bufpool.Put(payload)
	if err != nil {
		return nil, fmt.Errorf("core: undecodable message: %w", err)
	}
	msg, ok := v.(Msg)
	if !ok {
		return nil, fmt.Errorf("core: decoded value is not a Msg but %T", v)
	}
	return msg, nil
}
