package data

import (
	"errors"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// Item is one data message passing through the interceptor. Size drives
// statistics; Ctx carries the caller's message (an outgoing Msg for the
// middleware, a *netsim.Message for experiments) opaquely.
type Item struct {
	// Size is the payload size in bytes.
	Size int
	// Ctx is opaque caller context returned through the send callback.
	Ctx interface{}

	enqueuedAt time.Time
}

// InterceptorConfig parameterises an Interceptor.
type InterceptorConfig struct {
	// PSP assigns per-message protocols; required.
	PSP ProtocolSelectionPolicy
	// PRP prescribes the target ratio per episode; required.
	PRP ProtocolRatioPolicy
	// Clock provides time; required (virtual in experiments).
	Clock clock.Clock
	// Send hands a released item to the network layer with its chosen
	// wire protocol; required. It must not block.
	Send func(proto core.Transport, item *Item)
	// EpisodeLength is the learning-episode duration (default 1 s, as in
	// §IV-B2).
	EpisodeLength time.Duration
	// MaxOutstanding bounds messages released per protocol lane but not
	// yet reported sent (default 2). Keeping socket queues this short is
	// what lets control traffic interleave with bulk data (§V-C).
	MaxOutstanding int
	// OnEpisode, if set, observes each completed episode (for the
	// experiment harness's time series).
	OnEpisode func(stats EpisodeStats, next Ratio)
}

func (c *InterceptorConfig) validate() error {
	switch {
	case c.PSP == nil:
		return errors.New("data: InterceptorConfig.PSP is required")
	case c.PRP == nil:
		return errors.New("data: InterceptorConfig.PRP is required")
	case c.Clock == nil:
		return errors.New("data: InterceptorConfig.Clock is required")
	case c.Send == nil:
		return errors.New("data: InterceptorConfig.Send is required")
	}
	if c.EpisodeLength <= 0 {
		c.EpisodeLength = time.Second
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 2
	}
	return nil
}

// Interceptor is the data-network-interceptor of §IV-A for one
// destination node: it queues outgoing DATA messages and releases them to
// the network layer at the pace the underlying connections sustain,
// stamping each with the protocol chosen by the PSP. Once per episode it
// feeds throughput statistics to the PRP and adopts the returned ratio.
//
// The interceptor is a single-threaded state machine: all methods must be
// called from one goroutine (a kompics component handler or the simulation
// loop). Timers fire through the injected clock.
type Interceptor struct {
	cfg InterceptorConfig

	queue       []*Item
	next        core.Transport // protocol selected for the head-of-line item
	nextValid   bool
	outstanding map[core.Transport]int

	episodeStart time.Time
	bytesSent    int64
	msgsSent     int
	msgsDropped  int
	queueDelay   time.Duration
	episodes     int
	timer        clock.Timer
	running      bool
}

// NewInterceptor builds an interceptor; the configuration is validated.
func NewInterceptor(cfg InterceptorConfig) (*Interceptor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ic := &Interceptor{
		cfg:         cfg,
		outstanding: make(map[core.Transport]int, 2),
	}
	ic.cfg.PSP.SetRatio(cfg.PRP.Initial())
	return ic, nil
}

// Start begins episode accounting. Call once before the first Enqueue.
func (ic *Interceptor) Start() {
	if ic.running {
		return
	}
	ic.running = true
	ic.episodeStart = ic.cfg.Clock.Now()
	ic.scheduleEpisode()
}

// Stop cancels the episode timer. Queued items remain and can still be
// released by OnSent callbacks.
func (ic *Interceptor) Stop() {
	ic.running = false
	if ic.timer != nil {
		ic.timer.Stop()
		ic.timer = nil
	}
}

func (ic *Interceptor) scheduleEpisode() {
	ic.timer = ic.cfg.Clock.AfterFunc(ic.cfg.EpisodeLength, ic.episodeTick)
}

// episodeTick closes the current episode: statistics go to the PRP, whose
// new target ratio is installed in the PSP.
func (ic *Interceptor) episodeTick() {
	if !ic.running {
		return
	}
	now := ic.cfg.Clock.Now()
	stats := EpisodeStats{
		Duration:    now.Sub(ic.episodeStart),
		BytesSent:   ic.bytesSent,
		MsgsSent:    ic.msgsSent,
		MsgsDropped: ic.msgsDropped,
	}
	if ic.msgsSent > 0 {
		stats.AvgQueueDelay = ic.queueDelay / time.Duration(ic.msgsSent)
	}
	next := ic.cfg.PRP.Update(stats)
	ic.cfg.PSP.SetRatio(next)
	if ic.cfg.OnEpisode != nil {
		ic.cfg.OnEpisode(stats, next)
	}
	ic.bytesSent = 0
	ic.msgsSent = 0
	ic.msgsDropped = 0
	ic.queueDelay = 0
	ic.episodeStart = now
	ic.episodes++
	ic.scheduleEpisode()
}

// Enqueue accepts a DATA message for adaptive release.
func (ic *Interceptor) Enqueue(item *Item) {
	item.enqueuedAt = ic.cfg.Clock.Now()
	ic.queue = append(ic.queue, item)
	ic.release()
}

// OnSent reports that the network layer finished writing a previously
// released item on proto, freeing an outstanding slot.
func (ic *Interceptor) OnSent(proto core.Transport) {
	ic.OnSendResult(proto, nil)
}

// OnSendResult is OnSent carrying the send's outcome. A transport
// pending-queue drop (*transport.ErrDropped — shed under overload rather
// than failed by the wire) is charged to the episode's drop counter, so
// the PRP's reward sees overload the episode it happens instead of only
// through the slower queue-delay signal.
func (ic *Interceptor) OnSendResult(proto core.Transport, err error) {
	var de *transport.ErrDropped
	if errors.As(err, &de) {
		ic.msgsDropped++
	}
	if ic.outstanding[proto] > 0 {
		ic.outstanding[proto]--
	}
	ic.release()
}

// release moves queued items to the network while the protocol the PSP
// chose for the head-of-line item has a free outstanding slot. Head-of-
// line blocking on a full lane is deliberate: it preserves the selection
// sequence (and hence the pattern ratio) and throttles the stream to the
// pace of the protocols actually draining, which is what makes episode
// throughput a faithful reward signal.
func (ic *Interceptor) release() {
	for len(ic.queue) > 0 {
		if !ic.nextValid {
			ic.next = ic.cfg.PSP.Select()
			ic.nextValid = true
		}
		if ic.outstanding[ic.next] >= ic.cfg.MaxOutstanding {
			return
		}
		item := ic.queue[0]
		ic.queue[0] = nil
		ic.queue = ic.queue[1:]
		proto := ic.next
		ic.nextValid = false
		ic.outstanding[proto]++
		ic.bytesSent += int64(item.Size)
		ic.msgsSent++
		ic.queueDelay += ic.cfg.Clock.Now().Sub(item.enqueuedAt)
		ic.cfg.Send(proto, item)
	}
}

// QueueLen reports items waiting in the interceptor queue.
func (ic *Interceptor) QueueLen() int { return len(ic.queue) }

// Outstanding reports released-but-unsent items on proto.
func (ic *Interceptor) Outstanding(proto core.Transport) int {
	return ic.outstanding[proto]
}

// Episodes reports how many episodes have completed.
func (ic *Interceptor) Episodes() int { return ic.episodes }

// Ratio returns the currently installed target ratio.
func (ic *Interceptor) Ratio() Ratio { return ic.cfg.PSP.Ratio() }
