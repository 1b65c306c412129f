//kmlint:ignore-file simdet this file deliberately crosses the sim boundary: it validates vnet against real OS sockets and wall-clock pacing

package vnet

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

func hostAddr(s string) core.BasicAddress { return core.MustParseAddress(s) }

func TestAddressSemantics(t *testing.T) {
	h1 := hostAddr("10.0.0.1:100")
	a := NewAddress(h1, []byte("vnode-a"))
	b := NewAddress(h1, []byte("vnode-b"))
	other := NewAddress(hostAddr("10.0.0.2:100"), []byte("vnode-a"))

	if !a.SameHostAs(b) {
		t.Fatal("vnodes on one host must be SameHostAs")
	}
	if a.SameVNodeAs(b) {
		t.Fatal("different vnodes considered equal")
	}
	if !a.SameVNodeAs(NewAddress(h1, []byte("vnode-a"))) {
		t.Fatal("identical vnode not equal")
	}
	if a.SameVNodeAs(other) {
		t.Fatal("same id on another host considered equal")
	}
	if a.Port() != 100 || !a.IP().Equal(net.IPv4(10, 0, 0, 1)) {
		t.Fatal("address delegation broken")
	}
	if a.AsSocket() != "10.0.0.1:100" {
		t.Fatalf("AsSocket = %q", a.AsSocket())
	}
	if a.String() == "" || NewAddress(h1, nil).String() != h1.String() {
		t.Fatal("String() formatting broken")
	}
}

func TestNewAddressCopiesID(t *testing.T) {
	id := []byte{1, 2, 3}
	a := NewAddress(hostAddr("1.1.1.1:1"), id)
	id[0] = 9
	if a.ID[0] != 1 {
		t.Fatal("NewAddress aliased the id slice")
	}
}

func TestMsgHeaderAndReplacement(t *testing.T) {
	src := NewAddress(hostAddr("10.0.0.1:1"), []byte("a"))
	dst := NewAddress(hostAddr("10.0.0.2:2"), []byte("b"))
	m := &Msg{Src: src, Dst: dst, Proto: core.DATA, Payload: []byte("x")}
	h := m.Header()
	if !h.Source().SameHostAs(src.Host) || !h.Destination().SameHostAs(dst.Host) {
		t.Fatal("header endpoints wrong")
	}
	if h.Protocol() != core.DATA || m.Size() != 1 {
		t.Fatal("header basics wrong")
	}
	m2 := m.WithWireProtocol(core.UDT)
	if m.Proto != core.DATA {
		t.Fatal("WithWireProtocol mutated original")
	}
	if m2.Header().Protocol() != core.UDT {
		t.Fatal("WithWireProtocol did not restamp")
	}
	if ident, ok := m2.Header().Destination().(Identified); !ok ||
		!bytes.Equal(ident.VNodeID(), []byte("b")) {
		t.Fatal("restamped message lost vnode identity")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	in := &Msg{
		Src:     NewAddress(hostAddr("10.0.0.1:5000"), []byte{1, 2}),
		Dst:     NewAddress(hostAddr("10.0.0.2:6000"), []byte{3}),
		Proto:   core.TCP,
		Payload: []byte("payload"),
	}
	var buf bytes.Buffer
	if err := reg.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := v.(*Msg)
	if !out.Src.SameVNodeAs(in.Src) || !out.Dst.SameVNodeAs(in.Dst) {
		t.Fatal("vnode addresses corrupted")
	}
	if out.Proto != core.TCP || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatal("message corrupted")
	}
}

func TestSerializerRejectsWrongType(t *testing.T) {
	var buf bytes.Buffer
	if err := (MsgSerializer{}).Serialize(&buf, 3); err == nil {
		t.Fatal("serialized a non-vnet message")
	}
}

func TestPropertySerializationRoundTrip(t *testing.T) {
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	f := func(srcID, dstID, payload []byte, proto uint8) bool {
		in := &Msg{
			Src:     NewAddress(hostAddr("1.2.3.4:1"), srcID),
			Dst:     NewAddress(hostAddr("5.6.7.8:2"), dstID),
			Proto:   core.Transport(int(proto)%4 + 1),
			Payload: payload,
		}
		var buf bytes.Buffer
		if reg.Encode(&buf, in) != nil {
			return false
		}
		v, err := reg.Decode(&buf)
		if err != nil {
			return false
		}
		out := v.(*Msg)
		return bytes.Equal(out.Src.ID, srcID) && bytes.Equal(out.Dst.ID, dstID) &&
			bytes.Equal(out.Payload, payload) && out.Proto == in.Proto
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectors(t *testing.T) {
	host := hostAddr("10.0.0.1:100")
	toA := &Msg{Dst: NewAddress(host, []byte("a"))}
	toB := &Msg{Dst: NewAddress(host, []byte("b"))}
	toHost := &core.DataMsg{Hdr: core.NewHeader(host, host, core.TCP)}

	selA := Selector([]byte("a"))
	if !selA(toA) || selA(toB) || selA(toHost) {
		t.Fatal("vnode selector misroutes")
	}
	hostSel := HostSelector()
	if hostSel(toA) || !hostSel(toHost) {
		t.Fatal("host selector misroutes")
	}
	// Non-message events (notify responses) always pass.
	if !selA(core.NotifyResp{}) || !hostSel(core.NotifyResp{}) {
		t.Fatal("selectors must pass non-message events")
	}
}

func TestSelectorCopiesID(t *testing.T) {
	id := []byte{7}
	sel := Selector(id)
	id[0] = 8
	if !sel(&Msg{Dst: NewAddress(hostAddr("1.1.1.1:1"), []byte{7})}) {
		t.Fatal("selector did not copy its id")
	}
}

// --- end-to-end: two vnodes behind one real network component -----------------

// vnodeApp receives messages for one vnode.
type vnodeApp struct {
	port *kompics.Port
	comp *kompics.Component

	mu       sync.Mutex
	received []*Msg
}

type vnodeSend struct{ e kompics.Event }

func (a *vnodeApp) Init(ctx *kompics.Context) {
	a.comp = ctx.Component()
	a.port = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(a.port, (*core.Msg)(nil), func(e kompics.Event) {
		if m, ok := e.(*Msg); ok {
			a.mu.Lock()
			a.received = append(a.received, m)
			a.mu.Unlock()
		}
	})
	ctx.SubscribeSelf(vnodeSend{}, func(e kompics.Event) {
		ctx.Trigger(e.(vnodeSend).e, a.port)
	})
}

func (a *vnodeApp) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.received)
}

func TestVNodeReflectionWithoutSerialization(t *testing.T) {
	// Two vnodes behind one network endpoint exchange messages that are
	// reflected locally (never serialised) and routed by selectors.
	port := freeTestPort(t)
	self := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	netDef, err := core.NewNetwork(core.NetworkConfig{Self: self, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	sys := kompics.NewSystem()
	t.Cleanup(sys.Shutdown)
	netComp := sys.Create(netDef)

	vA := &vnodeApp{}
	vB := &vnodeApp{}
	aComp := sys.Create(vA)
	bComp := sys.Create(vB)
	kompics.MustConnect(netDef.Port(), vA.port,
		kompics.WithIndicationSelector(Selector([]byte("a"))))
	kompics.MustConnect(netDef.Port(), vB.port,
		kompics.WithIndicationSelector(Selector([]byte("b"))))
	sys.Start(netComp)
	sys.Start(aComp)
	sys.Start(bComp)

	payload := []byte("intra-host")
	msg := &Msg{
		Src:     NewAddress(self, []byte("a")),
		Dst:     NewAddress(self, []byte("b")),
		Proto:   core.TCP,
		Payload: payload,
	}
	vA.comp.SelfTrigger(vnodeSend{e: msg})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && vB.count() == 0 {
		time.Sleep(time.Millisecond)
	}
	if vB.count() != 1 {
		t.Fatal("vnode b did not receive the message")
	}
	sys.AwaitQuiescence()
	if vA.count() != 0 {
		t.Fatal("selector leaked the message back to vnode a")
	}
	vB.mu.Lock()
	defer vB.mu.Unlock()
	if &vB.received[0].Payload[0] != &payload[0] {
		t.Fatal("reflected vnode message was serialised (copied)")
	}
}

func freeTestPort(t *testing.T) int {
	t.Helper()
	p, err := testnet.FreePort(2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
