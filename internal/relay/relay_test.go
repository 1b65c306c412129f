package relay

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/testnet"
)

func addr(s string) core.BasicAddress { return core.MustParseAddress(s) }

func TestNewRoutedMsgValidation(t *testing.T) {
	if _, err := NewRoutedMsg(addr("1.1.1.1:1"), nil, core.TCP, nil); err == nil {
		t.Fatal("empty route accepted")
	}
}

func TestRoutedMsgHeaderSemantics(t *testing.T) {
	origin := addr("10.0.0.1:1")
	hop := addr("10.0.0.2:2")
	final := addr("10.0.0.3:3")
	m, err := NewRoutedMsg(origin, []core.Address{hop, final}, core.UDT, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header().Destination().SameHostAs(hop) {
		t.Fatal("first destination is not the first hop")
	}
	if !m.Header().Source().SameHostAs(origin) {
		t.Fatal("source is not the origin")
	}
	if m.Header().Protocol() != core.UDT || m.Size() != 1 {
		t.Fatal("header basics wrong")
	}
	m2 := m.WithWireProtocol(core.TCP)
	if m2.Header().Protocol() != core.TCP || m.Header().Protocol() != core.UDT {
		t.Fatal("WithWireProtocol broken")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	origin := addr("10.0.0.1:1")
	in, err := NewRoutedMsg(origin,
		[]core.Address{addr("10.0.0.2:2"), addr("10.0.0.3:3")},
		core.TCP, []byte("routed payload"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := v.(*RoutedMsg)
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatal("payload corrupted")
	}
	if out.Hdr.Route == nil || len(out.Hdr.Route.Hops) != 2 {
		t.Fatalf("route corrupted: %+v", out.Hdr.Route)
	}
	if !out.Hdr.Route.Origin.SameHostAs(origin) {
		t.Fatal("origin corrupted")
	}
	if !out.Hdr.FinalDestination().SameHostAs(addr("10.0.0.3:3")) {
		t.Fatal("final destination corrupted")
	}
}

func TestSerializationNoRoute(t *testing.T) {
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	in := &RoutedMsg{
		Hdr:     core.RoutingHeader{Base: core.NewHeader(addr("1.1.1.1:1"), addr("2.2.2.2:2"), core.TCP)},
		Payload: []byte("direct"),
	}
	var buf bytes.Buffer
	if err := reg.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*RoutedMsg).Hdr.Route != nil {
		t.Fatal("phantom route appeared")
	}
}

func TestSerializerRejectsWrongType(t *testing.T) {
	var buf bytes.Buffer
	if err := (MsgSerializer{}).Serialize(&buf, 1); err == nil {
		t.Fatal("serialized an int")
	}
}

func TestPropertySerializationRoundTrip(t *testing.T) {
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	f := func(payload []byte, hopPorts []uint16) bool {
		if len(hopPorts) == 0 {
			hopPorts = []uint16{1}
		}
		if len(hopPorts) > 16 {
			hopPorts = hopPorts[:16]
		}
		hops := make([]core.Address, len(hopPorts))
		for i, p := range hopPorts {
			hops[i] = core.NewAddress(net.IPv4(10, 0, 0, byte(i+2)), int(p))
		}
		in, err := NewRoutedMsg(addr("10.0.0.1:1"), hops, core.TCP, payload)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if reg.Encode(&buf, in) != nil {
			return false
		}
		v, err := reg.Decode(&buf)
		if err != nil {
			return false
		}
		out := v.(*RoutedMsg)
		if !bytes.Equal(out.Payload, payload) || len(out.Hdr.Route.Hops) != len(hops) {
			return false
		}
		for i := range hops {
			if !out.Hdr.Route.Hops[i].SameHostAs(hops[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- end-to-end: three real nodes, two hops, direct reply ----------------------

// relayApp is the application at each node: it records routed payloads
// and, when final receiver, replies directly to the origin.
type relayApp struct {
	self core.BasicAddress

	port *kompics.Port
	comp *kompics.Component

	mu       sync.Mutex
	received []*RoutedMsg
}

type appSend struct{ e kompics.Event }

func (a *relayApp) Init(ctx *kompics.Context) {
	a.comp = ctx.Component()
	a.port = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(a.port, (*core.Msg)(nil), func(e kompics.Event) {
		m, ok := e.(*RoutedMsg)
		if !ok {
			return
		}
		// Only consume messages whose final hop is this node.
		if m.Hdr.Route != nil && m.Hdr.Route.HasNext() {
			return // a relay will handle it
		}
		if !a.self.SameHostAs(m.Hdr.Destination()) {
			return
		}
		a.mu.Lock()
		a.received = append(a.received, m)
		a.mu.Unlock()
		if string(m.Payload) != "reply" {
			// Reply DIRECTLY to the origin: no route, one hop.
			reply := &RoutedMsg{
				Hdr: core.RoutingHeader{
					Base: core.NewHeader(a.self, m.Hdr.Source(), core.TCP),
				},
				Payload: []byte("reply"),
			}
			ctx.Trigger(reply, a.port)
		}
	})
	ctx.SubscribeSelf(appSend{}, func(e kompics.Event) {
		ctx.Trigger(e.(appSend).e, a.port)
	})
}

func (a *relayApp) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.received)
}

type relayNode struct {
	self core.BasicAddress
	sys  *kompics.System
	app  *relayApp
	fwd  *Forwarder
}

func startRelayNode(t *testing.T, port int) *relayNode {
	t.Helper()
	self := addr(fmt.Sprintf("127.0.0.1:%d", port))
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	netDef, err := core.NewNetwork(core.NetworkConfig{Self: self, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	sys := kompics.NewSystem(kompics.WithFaultHandler(func(f *kompics.Fault) {
		t.Errorf("component fault: %v", f)
	}))
	t.Cleanup(sys.Shutdown)
	netComp := sys.Create(netDef)

	app := &relayApp{self: self}
	appComp := sys.Create(app)
	kompics.MustConnect(netDef.Port(), app.port)

	fwd := NewForwarder(self)
	fwdComp := sys.Create(fwd)
	kompics.MustConnect(netDef.Port(), fwd.NetPort())

	sys.Start(netComp)
	sys.Start(appComp)
	sys.Start(fwdComp)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && netDef.Addr(core.TCP) == "" {
		time.Sleep(time.Millisecond)
	}
	if netDef.Addr(core.TCP) == "" {
		t.Fatal("listeners did not come up")
	}
	return &relayNode{self: self, sys: sys, app: app, fwd: fwd}
}

func freeTestPort(t *testing.T) int {
	t.Helper()
	p, err := testnet.FreePort(2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMultiHopForwardingWithDirectReply(t *testing.T) {
	origin := startRelayNode(t, freeTestPort(t))
	relay1 := startRelayNode(t, freeTestPort(t))
	relay2 := startRelayNode(t, freeTestPort(t))
	final := startRelayNode(t, freeTestPort(t))

	msg, err := NewRoutedMsg(origin.self,
		[]core.Address{relay1.self, relay2.self, final.self},
		core.TCP, []byte("via two relays"))
	if err != nil {
		t.Fatal(err)
	}
	origin.app.comp.SelfTrigger(appSend{e: msg})

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && (final.app.count() == 0 || origin.app.count() == 0) {
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("counts: origin=%d relay1=%d relay2=%d final=%d fwd1=%d fwd2=%d",
		origin.app.count(), relay1.app.count(), relay2.app.count(), final.app.count(),
		relay1.fwd.Forwarded(), relay2.fwd.Forwarded())
	if final.app.count() != 1 {
		t.Fatal("final node did not receive the routed message")
	}
	if origin.app.count() != 1 {
		t.Fatal("origin did not receive the direct reply")
	}

	final.app.mu.Lock()
	got := final.app.received[0]
	final.app.mu.Unlock()
	if string(got.Payload) != "via two relays" {
		t.Fatalf("payload = %q", got.Payload)
	}
	// The final receiver must see the ORIGIN as source, not the last
	// relay — that is the point of the routing header.
	if !got.Hdr.Source().SameHostAs(origin.self) {
		t.Fatalf("source at final hop = %v, want origin %v", got.Hdr.Source(), origin.self)
	}

	// The reply went directly: the relays each forwarded exactly one
	// message (the outbound one).
	origin.sys.AwaitQuiescence()
	relay1.sys.AwaitQuiescence()
	relay2.sys.AwaitQuiescence()
	if relay1.fwd.Forwarded() != 1 || relay2.fwd.Forwarded() != 1 {
		t.Fatalf("relays forwarded %d/%d messages, want 1/1 (reply must go direct)",
			relay1.fwd.Forwarded(), relay2.fwd.Forwarded())
	}
	// Intermediate apps never consumed the routed message.
	if relay1.app.count() != 0 || relay2.app.count() != 0 {
		t.Fatal("intermediaries consumed a message meant for the final hop")
	}
}

func TestForwarderDropsMisroutedMessages(t *testing.T) {
	// White-box: a routed message whose current hop does not address
	// this host must be dropped (at-most-once), not forwarded.
	node := startRelayNode(t, freeTestPort(t))
	other := addr("127.0.0.9:9") // not us
	msg, err := NewRoutedMsg(addr("127.0.0.8:8"),
		[]core.Address{other, addr("127.0.0.7:7")},
		core.TCP, []byte("lost"))
	if err != nil {
		t.Fatal(err)
	}
	node.fwd.onRouted(msg) // as if it had arrived here by mistake
	if node.fwd.Forwarded() != 0 {
		t.Fatal("forwarder relayed a message not addressed to this host")
	}
}
