package core

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
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
	// Compressor wraps wire payloads (default flate, mirroring the
	// paper's default-on Snappy handler). Use codec.Noop to disable.
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
	comp       *kompics.Component
	ctx        *kompics.Context
	epsMu      sync.Mutex // guards ep swaps across restarts
	// stageLimit is the inflight bound both lane stages are built with at
	// the next start (stageInflight; tests shrink it).
	stageLimit int
	// stage is the parallel codec stage; accessed only on the component
	// thread (created in OnStart, torn down in OnStop/OnKill, consulted in
	// sendMsg), so it needs no lock of its own.
	stage *codecStage
	// dstage is the parallel decode stage. The field is touched only on
	// the component thread (OnStart/OnStop/OnKill); the hot path never
	// reads it — each Endpoint's OnMessage closure captures its own
	// stage, so inbound delivery is lock-free at the Network level and a
	// restart cannot race frames onto a stale stage.
	dstage *decodeStage
	// warnLimit throttles the dropping-unsendable-message warn.
	warnLimit *stats.LogLimiter
}

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
		warnLimit:  stats.NewLogLimiter(cfg.Transport.Clock, warnBurst, warnRefillPerSec),
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

// inbound is the self-event carrying a received message into component
// context.
type inbound struct{ msg Msg }

// sendOutcome is the self-event carrying a transport notification back
// into component context.
type sendOutcome struct {
	id  uint64
	err error
}

// Init implements kompics.Definition.
func (n *Network) Init(ctx *kompics.Context) {
	n.ctx = ctx
	n.comp = ctx.Component()
	n.port = ctx.Provides(NetworkPort)
	n.statusPort = ctx.Provides(NetworkStatusPort)

	n.tcfg = n.cfg.Transport
	n.tcfg.ListenAddr = n.cfg.ListenAddr
	if len(n.cfg.Protocols) > 0 {
		n.tcfg.Protocols = n.cfg.Protocols
	}
	n.tcfg.Logger = n.cfg.Logger
	// Supervision events are raised on transport goroutines; hop into
	// component context before publishing them on the status port.
	n.tcfg.OnStatus = func(ev transport.StatusEvent) {
		n.comp.SelfTrigger(statusInbound{ev: ev})
	}
	// Reject a bad transport config at Create instead of faulting the
	// component at Start. Live endpoints get their OnMessage from the
	// decode stage built with them; this one never receives.
	probe := n.tcfg
	probe.OnMessage = func(transport.From, []byte) {}
	if _, err := transport.NewEndpoint(probe); err != nil {
		panic(fmt.Sprintf("core: invalid transport config: %v", err))
	}

	ctx.Subscribe(n.port, (*Msg)(nil), func(e kompics.Event) {
		n.sendMsg(e.(Msg), 0, false)
	})
	ctx.Subscribe(n.port, NotifyReq{}, func(e kompics.Event) {
		req := e.(NotifyReq)
		n.sendMsg(req.Msg, req.ID, true)
	})
	ctx.SubscribeSelf(inbound{}, func(e kompics.Event) {
		ctx.Trigger(e.(inbound).msg, n.port)
	})
	ctx.SubscribeSelf(sendOutcome{}, func(e kompics.Event) {
		o := e.(sendOutcome)
		ctx.Trigger(NotifyResp{ID: o.id, Err: o.err}, n.port)
	})
	ctx.SubscribeSelf(statusInbound{}, func(e kompics.Event) {
		n.publishStatus(e.(statusInbound).ev)
	})
	n.registerMetrics()

	// Endpoints are single-use: each Start builds a fresh one, so the
	// component can be stopped and restarted (listeners re-bind). The
	// decode stage is born with its endpoint: the OnMessage closure binds
	// inbound frames to exactly this start's stage, with no lock or
	// indirection on the per-frame path.
	ctx.OnStart(func() {
		dst := newDecodeStage(n)
		tcfg := n.tcfg
		tcfg.OnMessage = dst.submit
		ep, err := transport.NewEndpoint(tcfg)
		if err != nil {
			panic(fmt.Sprintf("core: transport config: %v", err))
		}
		if err := ep.Start(); err != nil {
			dst.close()
			n.cfg.Logger.Error("core: network listeners failed", "err", err)
			panic(err) // faults the component; supervisors see it
		}
		n.setEndpoint(ep)
		n.dstage = dst
		n.stage = newCodecStage(n, ep)
	})
	stop := func() {
		// Codec stage first: its close waits for in-flight encodes, whose
		// releases still reach the live endpoint and resolve through its
		// notify contract; then the endpoint (read loops drain and exit);
		// the decode stage last, once no read loop can submit — it fails
		// the undecoded backlog and recycles its pooled buffers.
		if st := n.stage; st != nil {
			n.stage = nil
			st.close()
		}
		if ep := n.endpoint(); ep != nil {
			ep.Close()
		}
		if dst := n.dstage; dst != nil {
			n.dstage = nil
			dst.close()
		}
	}
	ctx.OnStop(stop)
	ctx.OnKill(stop)
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
	dest := dst.AsSocket()
	if proto == UDT {
		shifted, err := transport.OffsetPort(dest, transport.UDTPortOffset)
		if err != nil {
			n.notify(notifyID, wantNotify, err)
			return
		}
		dest = shifted
	}
	if n.stage == nil {
		n.notify(notifyID, wantNotify, errors.New("core: network not started"))
		return
	}
	// The stage encodes off the component thread and hands the payload to
	// Endpoint.SendQoS in per-(proto, dest) submission order, carrying the
	// header's QoS annotation to the transport's queue policy.
	n.stage.submit(msg, proto, dest, HeaderQoS(hdr), notifyID, wantNotify)
}

// The token bucket throttling notify's warn: warnBurst lines at once,
// refilled at warnRefillPerSec.
const (
	warnBurst        = 10
	warnRefillPerSec = 1
)

// notify resolves one send: a NotifyResp on the port when the sender
// asked for one, otherwise a rate-limited warn on failure (a dead peer
// under fan-out load fails every message; the token bucket keeps the
// logger out of the hot path while the suppressed count preserves the
// failure's magnitude). Callable from codec workers as well as the
// component thread — Trigger is goroutine-safe and the limiter locks.
func (n *Network) notify(id uint64, want bool, err error) {
	if !want {
		if err != nil {
			if ok, suppressed := n.warnLimit.Allow(); ok {
				if suppressed > 0 {
					n.cfg.Logger.Warn("core: dropping unsendable message",
						"err", err, "suppressed", suppressed)
				} else {
					n.cfg.Logger.Warn("core: dropping unsendable message", "err", err)
				}
			}
		}
		return
	}
	n.ctx.Trigger(NotifyResp{ID: id, Err: err}, n.port)
}

// encode serialises and optionally compresses a message into a buffer
// drawn from bufpool. Ownership of the returned slice passes to the
// caller — sendMsg hands it to transport.Send, which recycles it once the
// write outcome is decided.
func (n *Network) encode(msg Msg) ([]byte, error) {
	scratch := bufpool.GetBuffer()
	scratch.WriteByte(wireRaw)
	if err := n.cfg.Registry.Encode(scratch, msg); err != nil {
		bufpool.PutBuffer(scratch)
		return nil, fmt.Errorf("%w: %T (%v)", ErrNoSerializer, msg, err)
	}
	raw := scratch.Bytes()
	if _, isNoop := n.cfg.Compressor.(codec.Noop); !isNoop {
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
