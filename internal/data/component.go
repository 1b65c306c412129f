package data

import (
	"errors"
	"fmt"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// ProtocolReplaceable is implemented by messages whose wire protocol the
// DATA interceptor may substitute at release time (the paper's DataHeader
// contract). core.DataMsg implements it.
type ProtocolReplaceable interface {
	core.Msg
	// WithWireProtocol returns the message restamped with a concrete
	// transport.
	WithWireProtocol(t core.Transport) core.Msg
}

// sizer lets the interceptor weigh messages for throughput statistics.
type sizer interface{ Size() int }

// NetworkConfig parameterises the DataNetwork component.
type NetworkConfig struct {
	// NewPSP builds the per-destination protocol selection policy
	// (default: pattern selection at the PRP's initial ratio).
	NewPSP func() ProtocolSelectionPolicy
	// NewPRP builds the per-destination protocol ratio policy; required
	// (e.g. StaticRatio or a TDRatioLearner factory).
	NewPRP func() ProtocolRatioPolicy
	// EpisodeLength is the learning episode duration (default 1 s).
	EpisodeLength time.Duration
	// MaxOutstanding bounds released-but-unsent messages per protocol
	// lane (default 2).
	MaxOutstanding int
	// OnEpisode, if set, observes every completed episode of every
	// destination stream (instrumentation).
	OnEpisode func(dest string, stats EpisodeStats, next Ratio)
}

// Network is the DataNetwork component of §IV-A: it provides the Kompics
// network port to applications and requires one from the actual network
// component. Messages with Transport.DATA are queued per destination and
// released with a concrete protocol chosen by the PSP; everything else
// passes straight through (the paper routes non-data traffic around the
// interceptor with channel selectors; passing through one handler hop is
// semantically identical).
type Network struct {
	cfg NetworkConfig

	ctx      *kompics.Context
	comp     *kompics.Component
	provided *kompics.Port
	required *kompics.Port

	streams map[string]*destStream
	pending map[uint64]pendingEntry
	nextID  uint64
}

var _ kompics.Definition = (*Network)(nil)

// destStream is the interceptor state for one destination node.
type destStream struct {
	dest string
	ic   *Interceptor
}

// pendingEntry tracks an in-flight NotifyReq to the lower network layer.
type pendingEntry struct {
	// stream and proto are set for interceptor-released messages, to
	// credit OnSent.
	stream *destStream
	proto  core.Transport
	// appID/wantNotify route the response back to the application.
	appID      uint64
	wantNotify bool
}

// itemCtx is the interceptor queue context for middleware messages.
type itemCtx struct {
	msg        ProtocolReplaceable
	appID      uint64
	wantNotify bool
}

// NewDataNetwork builds the component definition.
func NewDataNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.NewPRP == nil {
		return nil, errors.New("data: NetworkConfig.NewPRP is required")
	}
	if cfg.NewPSP == nil {
		cfg.NewPSP = func() ProtocolSelectionPolicy {
			return NewPatternSelection(Even)
		}
	}
	if cfg.EpisodeLength <= 0 {
		cfg.EpisodeLength = time.Second
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 2
	}
	return &Network{
		cfg:     cfg,
		streams: make(map[string]*destStream),
		pending: make(map[uint64]pendingEntry),
	}, nil
}

// Provided returns the port applications connect their required network
// port to.
func (n *Network) Provided() *kompics.Port { return n.provided }

// Required returns the port to connect to the core network component's
// provided port.
func (n *Network) Required() *kompics.Port { return n.required }

// timerFire carries an interceptor timer callback into component context.
type timerFire struct{ fn func() }

// Init implements kompics.Definition.
func (n *Network) Init(ctx *kompics.Context) {
	n.ctx = ctx
	n.comp = ctx.Component()
	n.provided = ctx.Provides(core.NetworkPort)
	n.required = ctx.Requires(core.NetworkPort)

	ctx.Subscribe(n.provided, (*core.Msg)(nil), func(e kompics.Event) {
		n.outgoing(e.(core.Msg), 0, false)
	})
	ctx.Subscribe(n.provided, core.NotifyReq{}, func(e kompics.Event) {
		req := e.(core.NotifyReq)
		n.outgoing(req.Msg, req.ID, true)
	})
	ctx.Subscribe(n.required, (*core.Msg)(nil), func(e kompics.Event) {
		// Inbound traffic passes straight up.
		ctx.Trigger(e.(core.Msg), n.provided)
	})
	ctx.Subscribe(n.required, core.NotifyResp{}, func(e kompics.Event) {
		n.lowerNotify(e.(core.NotifyResp))
	})
	ctx.SubscribeSelf(timerFire{}, func(e kompics.Event) {
		e.(timerFire).fn()
	})
	ctx.OnStop(func() { n.stopStreams() })
	ctx.OnKill(func() { n.stopStreams() })
}

func (n *Network) stopStreams() {
	for _, st := range n.streams {
		st.ic.Stop()
	}
}

// outgoing routes one application message.
func (n *Network) outgoing(msg core.Msg, appID uint64, wantNotify bool) {
	if msg.Header().Protocol() != core.DATA {
		// Pass through, remapping notification IDs so they cannot
		// collide with our internal correlation space.
		if !wantNotify {
			n.ctx.Trigger(msg, n.required)
			return
		}
		id := n.allocPending(pendingEntry{appID: appID, wantNotify: true})
		n.ctx.Trigger(core.NotifyReq{ID: id, Msg: msg}, n.required)
		return
	}

	pr, ok := msg.(ProtocolReplaceable)
	if !ok {
		err := fmt.Errorf("data: %T uses Transport.DATA but does not implement ProtocolReplaceable", msg)
		if wantNotify {
			n.ctx.Trigger(core.NotifyResp{ID: appID, Err: err}, n.provided)
		}
		return
	}
	st := n.stream(core.AddressKey(msg.Header().Destination()))
	size := 0
	if s, ok := msg.(sizer); ok {
		size = s.Size()
	}
	st.ic.Enqueue(&Item{
		Size: size,
		Ctx:  itemCtx{msg: pr, appID: appID, wantNotify: wantNotify},
	})
}

// stream returns (creating on first use) the interceptor for dest.
func (n *Network) stream(dest string) *destStream {
	if st, ok := n.streams[dest]; ok {
		return st
	}
	st := &destStream{dest: dest}
	ic, err := NewInterceptor(InterceptorConfig{
		PSP:            n.cfg.NewPSP(),
		PRP:            n.cfg.NewPRP(),
		Clock:          componentClock{comp: n.comp, inner: n.ctx.System().Clock()},
		EpisodeLength:  n.cfg.EpisodeLength,
		MaxOutstanding: n.cfg.MaxOutstanding,
		Send: func(proto core.Transport, item *Item) {
			n.releaseToWire(st, proto, item)
		},
		OnEpisode: func(stats EpisodeStats, next Ratio) {
			if n.cfg.OnEpisode != nil {
				n.cfg.OnEpisode(dest, stats, next)
			}
		},
	})
	if err != nil {
		panic(err) // config was validated in NewDataNetwork; unreachable
	}
	st.ic = ic
	ic.Start()
	n.streams[dest] = st
	return st
}

// releaseToWire forwards an interceptor-released message to the network
// component with a tracking NotifyReq, so the interceptor learns when the
// socket write completed.
func (n *Network) releaseToWire(st *destStream, proto core.Transport, item *Item) {
	ic := item.Ctx.(itemCtx)
	wireMsg := ic.msg.WithWireProtocol(proto)
	id := n.allocPending(pendingEntry{
		stream:     st,
		proto:      proto,
		appID:      ic.appID,
		wantNotify: ic.wantNotify,
	})
	n.ctx.Trigger(core.NotifyReq{ID: id, Msg: wireMsg}, n.required)
}

func (n *Network) allocPending(e pendingEntry) uint64 {
	n.nextID++
	n.pending[n.nextID] = e
	return n.nextID
}

// lowerNotify handles a NotifyResp from the network component.
func (n *Network) lowerNotify(resp core.NotifyResp) {
	entry, ok := n.pending[resp.ID]
	if !ok {
		return // not ours (should not happen; IDs are remapped)
	}
	delete(n.pending, resp.ID)
	if entry.stream != nil {
		// The outcome rides along so the interceptor can charge transport
		// pending-queue drops to the episode's overload counter.
		entry.stream.ic.OnSendResult(entry.proto, resp.Err)
	}
	if entry.wantNotify {
		n.ctx.Trigger(core.NotifyResp{ID: entry.appID, Err: resp.Err}, n.provided)
	}
}

// componentClock adapts the system clock so interceptor timer callbacks
// run inside the owning component (exclusive-state guarantee).
type componentClock struct {
	comp  *kompics.Component
	inner clock.Clock
}

var _ clock.Clock = componentClock{}

// Now implements clock.Clock.
func (c componentClock) Now() time.Time { return c.inner.Now() }

// AfterFunc implements clock.Clock: the callback is re-routed through the
// component's self-trigger queue.
func (c componentClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return c.inner.AfterFunc(d, func() {
		c.comp.SelfTrigger(timerFire{fn: f})
	})
}
