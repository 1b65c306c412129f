package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/faults"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// statusApp observes a node's NetworkStatusPort and forwards every
// supervision indication to a channel so tests can assert the exact
// event sequence without polling.
type statusApp struct {
	port *kompics.Port
	ch   chan ChannelStatus
}

func newStatusApp() *statusApp { return &statusApp{ch: make(chan ChannelStatus, 64)} }

func (s *statusApp) Init(ctx *kompics.Context) {
	s.port = ctx.Requires(NetworkStatusPort)
	ctx.Subscribe(s.port, ChannelStatus{}, func(e kompics.Event) { s.ch <- e.(ChannelStatus) })
}

// supApp mirrors appComponent but hands deliveries and notifies to
// channels, so the supervision tests synchronize on events instead of
// sleeping.
type supApp struct {
	net      *kompics.Port
	comp     *kompics.Component
	recvCh   chan *DataMsg
	notifyCh chan NotifyResp
}

func newSupApp() *supApp {
	return &supApp{recvCh: make(chan *DataMsg, 64), notifyCh: make(chan NotifyResp, 64)}
}

func (a *supApp) Init(ctx *kompics.Context) {
	a.comp = ctx.Component()
	a.net = ctx.Requires(NetworkPort)
	ctx.Subscribe(a.net, (*Msg)(nil), func(e kompics.Event) {
		if m, ok := e.(*DataMsg); ok {
			a.recvCh <- m
		}
	})
	ctx.Subscribe(a.net, NotifyResp{}, func(e kompics.Event) {
		a.notifyCh <- e.(NotifyResp)
	})
	ctx.SubscribeSelf(sendReq{}, func(e kompics.Event) {
		ctx.Trigger(e.(sendReq).e, a.net)
	})
}

// supNode bundles one middleware instance with channel-driven app and
// status observers, and the registry its network feeds.
type supNode struct {
	self    Address
	sys     *kompics.System
	net     *Network
	netComp *kompics.Component
	app     *supApp
	status  *statusApp
	metrics *stats.Registry
}

func (n *supNode) send(e kompics.Event) { n.app.comp.SelfTrigger(sendReq{e: e}) }

// startSupervisedNode boots a node whose transport is tuned by tcfg
// (fault injector, virtual clock, dial budget). OnStart binds listeners
// synchronously in component context, so AwaitQuiescence doubles as the
// "listeners up" barrier — no sleeping.
func startSupervisedNode(t *testing.T, port int, tcfg transport.Config) *supNode {
	t.Helper()
	self := MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
	metrics := stats.NewRegistry()
	netDef, err := NewNetwork(NetworkConfig{Self: self, Transport: tcfg, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	sys := kompics.NewSystem()
	t.Cleanup(sys.Shutdown)
	netComp := sys.Create(netDef)
	app := newSupApp()
	appComp := sys.Create(app)
	status := newStatusApp()
	statusComp := sys.Create(status)
	kompics.MustConnect(netDef.Port(), app.net)
	kompics.MustConnect(netDef.StatusPort(), status.port)
	sys.Start(netComp)
	sys.Start(appComp)
	sys.Start(statusComp)
	sys.AwaitQuiescence()
	if netDef.Addr(TCP) == "" {
		t.Fatal("listeners did not come up")
	}
	return &supNode{self: self, sys: sys, net: netDef, netComp: netComp, app: app, status: status, metrics: metrics}
}

// awaitStatus pops the next supervision event and requires it to be of
// kind want: the tests assert the exact event sequence, so an unexpected
// kind is a failure, not something to skip past.
func awaitStatus(t *testing.T, ch <-chan ChannelStatus, want transport.StatusKind) ChannelStatus {
	t.Helper()
	ev := awaitAnyStatus(t, ch)
	if ev.Kind != want {
		t.Fatalf("status event %v (%+v), want %v", ev.Kind, ev, want)
	}
	return ev
}

// awaitAnyStatus pops the next supervision event of whatever kind.
func awaitAnyStatus(t *testing.T, ch <-chan ChannelStatus) ChannelStatus {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a status event")
	}
	return ChannelStatus{}
}

// assertCounters checks the node's supervision counters by name; a want
// of zero means the counter must be absent from the snapshot.
func assertCounters(t *testing.T, n *supNode, want map[string]uint64) {
	t.Helper()
	snap := n.metrics.Snapshot()
	for name, w := range want {
		got, ok := snap[name]
		if w == 0 {
			if ok {
				t.Errorf("%s = %v, want absent", name, got)
			}
			continue
		}
		if got != w {
			t.Errorf("%s = %v, want %d", name, got, w)
		}
	}
}

func awaitNotify(t *testing.T, ch <-chan NotifyResp) NotifyResp {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for notify response")
	}
	return NotifyResp{}
}

func awaitDelivery(t *testing.T, ch <-chan *DataMsg, want string) {
	t.Helper()
	if m := awaitAnyDelivery(t, ch); string(m.Payload) != want {
		t.Fatalf("delivered %q, want %q", m.Payload, want)
	}
}

func awaitAnyDelivery(t *testing.T, ch <-chan *DataMsg) *DataMsg {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a delivery")
	}
	return nil
}

// TestNetworkStatusOutageAndRecovery scripts a full peer outage at the
// middleware level: the app on node a watches its NetworkStatusPort see
// exactly Up, Down, Retry(1), Retry(2), Up while the fault injector kills
// and revives the path to b under a virtual clock, and the status
// counters record each kind. At-most-once holds across the reconnect:
// the message whose failure notify fired during the outage never
// reappears.
func TestNetworkStatusOutageAndRecovery(t *testing.T) {
	ports := freePorts(t, 2)
	inj := faults.New(1)
	vc := clock.NewVirtual()
	a := startSupervisedNode(t, ports[0], transport.Config{
		Sockets:         inj.Wrap(transport.NetSockets{}),
		Clock:           vc,
		MaxDialAttempts: 5,
	})
	b := startSupervisedNode(t, ports[1], transport.Config{})
	msg := func(s string) *DataMsg {
		return &DataMsg{Hdr: NewHeader(a.self, b.self, TCP), Payload: []byte(s)}
	}

	a.send(NotifyReq{ID: 1, Msg: msg("before")})
	if r := awaitNotify(t, a.app.notifyCh); r.ID != 1 || !r.Sent() {
		t.Fatalf("send before outage: %+v", r)
	}
	up := awaitStatus(t, a.status.ch, StatusUp)
	if up.Proto != TCP || up.Dest != b.self.AsSocket() {
		t.Fatalf("up event %+v, want TCP to %v", up, b.self)
	}
	awaitDelivery(t, b.app.recvCh, "before")

	// Kill the path to b: the established connection resets on the next
	// write, redials are refused.
	resetID := inj.Add(faults.Spec{Op: faults.OpWrite, Action: faults.Reset})
	refuseID := inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse})

	a.send(NotifyReq{ID: 2, Msg: msg("during")})
	if r := awaitNotify(t, a.app.notifyCh); r.ID != 2 || !errors.Is(r.Err, faults.ErrConnReset) {
		t.Fatalf("send during outage: %+v, want ErrConnReset", r)
	}
	down := awaitStatus(t, a.status.ch, StatusDown)
	if !errors.Is(down.Err, faults.ErrConnReset) {
		t.Fatalf("down event carries %v, want the reset", down.Err)
	}

	// Each Retry is published after its backoff timer is armed, so
	// advancing the virtual clock by the reported delay deterministically
	// fires the next dial attempt.
	r1 := awaitStatus(t, a.status.ch, StatusRetry)
	if r1.Attempt != 1 || r1.NextDelay <= 0 {
		t.Fatalf("first retry %+v", r1)
	}
	vc.Advance(r1.NextDelay)
	r2 := awaitStatus(t, a.status.ch, StatusRetry)
	if r2.Attempt != 2 {
		t.Fatalf("second retry %+v", r2)
	}

	// Revive the peer and release the third attempt.
	inj.Remove(resetID)
	inj.Remove(refuseID)
	vc.Advance(r2.NextDelay)
	up = awaitStatus(t, a.status.ch, StatusUp)
	if up.Dest != b.self.AsSocket() {
		t.Fatalf("revival up event %+v", up)
	}

	// Status events are stamped from the injectable clock, so on a
	// virtual clock recovery latency is exact arithmetic: the down→up gap
	// equals precisely the two backoff delays the test advanced through.
	if up.At.IsZero() || down.At.IsZero() {
		t.Fatalf("status events missing timestamps: down=%v up=%v", down.At, up.At)
	}
	if got, want := up.At.Sub(down.At), r1.NextDelay+r2.NextDelay; got != want {
		t.Fatalf("recovery latency = %v, want the advanced backoffs %v", got, want)
	}

	a.send(NotifyReq{ID: 3, Msg: msg("after")})
	if r := awaitNotify(t, a.app.notifyCh); r.ID != 3 || !r.Sent() {
		t.Fatalf("send after revival: %+v", r)
	}
	awaitDelivery(t, b.app.recvCh, "after")

	// At-most-once across the outage: "during" failed its notify and must
	// never have been retransmitted by the reconnect.
	select {
	case m := <-b.app.recvCh:
		t.Fatalf("extra delivery %q after recovery", m.Payload)
	default:
	}
	assertCounters(t, a, map[string]uint64{
		"status_up_total":       2,
		"status_down_total":     1,
		"status_retry_total":    2,
		"status_fallback_total": 0,
	})
}

// TestNetworkStatusUDTFallback exhausts UDT dialing (refused by the
// injector) and watches the middleware degrade the destination to TCP: a
// Fallback event on the status port, then Up for the UDT channel now
// dialing TCP, with the queued message delivered exactly once.
func TestNetworkStatusUDTFallback(t *testing.T) {
	ports := freePorts(t, 2)
	inj := faults.New(1)
	inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Proto: UDT})
	a := startSupervisedNode(t, ports[0], transport.Config{
		Sockets:         inj.Wrap(transport.NetSockets{}),
		MaxDialAttempts: 1, // degrade on the first refused dial
	})
	b := startSupervisedNode(t, ports[1], transport.Config{})

	a.send(NotifyReq{ID: 1, Msg: &DataMsg{
		Hdr: NewHeader(a.self, b.self, UDT), Payload: []byte("via-fallback"),
	}})

	// UDT traffic targets b's port+1 by the offset convention; fallback
	// un-shifts back to the TCP listener.
	udtDest := fmt.Sprintf("127.0.0.1:%d", ports[1]+1)
	fb := awaitStatus(t, a.status.ch, StatusFallback)
	if fb.Proto != UDT || fb.To != TCP || fb.Dest != udtDest || fb.ToDest != b.self.AsSocket() {
		t.Fatalf("fallback event %+v, want UDT %s → TCP %s", fb, udtDest, b.self)
	}
	if !errors.Is(fb.Err, faults.ErrDialRefused) {
		t.Fatalf("fallback carries %v, want the dial failure", fb.Err)
	}
	up := awaitStatus(t, a.status.ch, StatusUp)
	if up.Proto != UDT || up.Dest != udtDest {
		t.Fatalf("up event %+v, want the UDT channel, now over TCP", up)
	}

	if r := awaitNotify(t, a.app.notifyCh); r.ID != 1 || !r.Sent() {
		t.Fatalf("queued message across fallback: %+v", r)
	}
	awaitDelivery(t, b.app.recvCh, "via-fallback")

	// Later UDT sends reroute through the registered fallback.
	a.send(NotifyReq{ID: 2, Msg: &DataMsg{
		Hdr: NewHeader(a.self, b.self, UDT), Payload: []byte("rerouted"),
	}})
	if r := awaitNotify(t, a.app.notifyCh); r.ID != 2 || !r.Sent() {
		t.Fatalf("rerouted send: %+v", r)
	}
	awaitDelivery(t, b.app.recvCh, "rerouted")
	select {
	case m := <-b.app.recvCh:
		t.Fatalf("duplicate delivery %q across fallback", m.Payload)
	default:
	}
	assertCounters(t, a, map[string]uint64{"status_fallback_total": 1})
}
