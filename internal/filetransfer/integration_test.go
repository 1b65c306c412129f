package filetransfer

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/data"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

func freeTestPort(t *testing.T) int {
	t.Helper()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < 200; i++ {
		p := 20000 + 2*rng.Intn(20000)
		ok := true
		for _, d := range []int{0, 1} {
			if l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p+d)); err == nil {
				l.Close()
			} else {
				ok = false
				break
			}
			if l, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", p+d)); err == nil {
				l.Close()
			} else {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	t.Fatal("no free port")
	return 0
}

// completionWatcher records Complete indications.
type completionWatcher struct {
	port *kompics.Port
	done chan Complete
}

func (w *completionWatcher) Init(ctx *kompics.Context) {
	w.port = ctx.Requires(TransferPort)
	ctx.Subscribe(w.port, Complete{}, func(e kompics.Event) {
		select {
		case w.done <- e.(Complete):
		default:
		}
	})
}

// starter kicks off the transfer from component context.
type starter struct {
	port *kompics.Port
	comp *kompics.Component
}

type kick struct{ id uint32 }

func (s *starter) Init(ctx *kompics.Context) {
	s.comp = ctx.Component()
	s.port = ctx.Requires(TransferPort)
	ctx.SubscribeSelf(kick{}, func(e kompics.Event) {
		ctx.Trigger(StartTransfer{TransferID: e.(kick).id}, s.port)
	})
}

// runTransfer moves size bytes over the real middleware on loopback using
// proto, optionally through a DataNetwork, and returns the receiver-side
// completion.
func runTransfer(t *testing.T, proto core.Transport, size int64, withDataNet bool) Complete {
	t.Helper()
	portA := freeTestPort(t)
	portB := freeTestPort(t)
	selfA := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", portA))
	selfB := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", portB))

	mkReg := func() *core.Network {
		return nil
	}
	_ = mkReg

	newNode := func(self core.BasicAddress) (*kompics.System, *core.Network) {
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
		comp := sys.Create(netDef)
		sys.Start(comp)
		return sys, netDef
	}

	sysA, netA := newNode(selfA)
	sysB, netB := newNode(selfB)

	dataset, err := NewDataset(11, size)
	if err != nil {
		t.Fatal(err)
	}
	senderDef, err := NewSender(SenderConfig{
		Self: selfA, Dest: selfB, Proto: proto,
		Data: dataset, ChunkSize: 16 << 10, WindowSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	senderComp := sysA.Create(senderDef)

	// Optionally interpose a DataNetwork on the sender side.
	if withDataNet {
		dn, err := data.NewDataNetwork(data.NetworkConfig{
			NewPRP: func() data.ProtocolRatioPolicy { return data.StaticRatio{R: data.Even} },
		})
		if err != nil {
			t.Fatal(err)
		}
		dnComp := sysA.Create(dn)
		kompics.MustConnect(netA.Port(), dn.Required())
		kompics.MustConnect(dn.Provided(), senderDef.NetPort())
		sysA.Start(dnComp)
	} else {
		kompics.MustConnect(netA.Port(), senderDef.NetPort())
	}

	recvDef := NewReceiver()
	recvComp := sysB.Create(recvDef)
	kompics.MustConnect(netB.Port(), recvDef.NetPort())

	watch := &completionWatcher{done: make(chan Complete, 1)}
	watchComp := sysB.Create(watch)
	kompics.MustConnect(recvDef.Port(), watch.port)

	st := &starter{}
	stComp := sysA.Create(st)
	kompics.MustConnect(senderDef.Port(), st.port)

	sysA.Start(senderComp)
	sysB.Start(recvComp)
	sysB.Start(watchComp)
	sysA.Start(stComp)

	st.comp.SelfTrigger(kick{id: 1})

	select {
	case c := <-watch.done:
		return c
	case <-time.After(60 * time.Second):
		t.Fatalf("transfer over %v did not complete", proto)
		return Complete{}
	}
}

func TestTransferOverTCP(t *testing.T) {
	c := runTransfer(t, core.TCP, 2<<20, false)
	if c.Bytes != 2<<20 {
		t.Fatalf("received %d bytes", c.Bytes)
	}
}

func TestTransferOverUDT(t *testing.T) {
	c := runTransfer(t, core.UDT, 1<<20, false)
	if c.Bytes != 1<<20 {
		t.Fatalf("received %d bytes", c.Bytes)
	}
}

func TestTransferOverDATA(t *testing.T) {
	// The DATA pseudo-protocol routes through the interceptor, which
	// splits chunks between real TCP and UDT connections.
	c := runTransfer(t, core.DATA, 1<<20, true)
	if c.Bytes != 1<<20 {
		t.Fatalf("received %d bytes", c.Bytes)
	}
}

// seqApp sends numbered messages on its required network port and
// forwards every delivered message to a channel.
type seqApp struct {
	port *kompics.Port
	comp *kompics.Component
	recv chan *core.DataMsg
}

type sendAll struct{ msgs []*core.DataMsg }

func (a *seqApp) Init(ctx *kompics.Context) {
	a.comp = ctx.Component()
	a.port = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(a.port, (*core.Msg)(nil), func(e kompics.Event) {
		if m, ok := e.(*core.DataMsg); ok {
			a.recv <- m
		}
	})
	ctx.SubscribeSelf(sendAll{}, func(e kompics.Event) {
		for _, m := range e.(sendAll).msgs {
			ctx.Trigger(m, a.port)
		}
	})
}

// TestDATAOrderPerProtocol pins DATA's ordering contract on real loopback
// sockets: FIFO holds per (peer, underlying protocol), not across TCP and
// UDT. Every message of an Even-pattern DATA stream arrives exactly once,
// the TCP and UDT subsequences are each in send order, and both protocols
// carry a real share of the stream.
func TestDATAOrderPerProtocol(t *testing.T) {
	const n = 2000
	selfA := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", freeTestPort(t)))
	selfB := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", freeTestPort(t)))
	newNode := func(self core.BasicAddress) (*kompics.System, *core.Network, *seqApp) {
		netDef, err := core.NewNetwork(core.NetworkConfig{Self: self})
		if err != nil {
			t.Fatal(err)
		}
		sys := kompics.NewSystem()
		t.Cleanup(sys.Shutdown)
		sys.Start(sys.Create(netDef))
		return sys, netDef, &seqApp{recv: make(chan *core.DataMsg, n)}
	}
	sysA, netA, sender := newNode(selfA)
	sysB, netB, receiver := newNode(selfB)

	dn, err := data.NewDataNetwork(data.NetworkConfig{
		NewPRP: func() data.ProtocolRatioPolicy { return data.StaticRatio{R: data.Even} },
	})
	if err != nil {
		t.Fatal(err)
	}
	dnComp := sysA.Create(dn)
	senderComp := sysA.Create(sender)
	kompics.MustConnect(netA.Port(), dn.Required())
	kompics.MustConnect(dn.Provided(), sender.port)
	receiverComp := sysB.Create(receiver)
	kompics.MustConnect(netB.Port(), receiver.port)
	sysA.Start(dnComp)
	sysA.Start(senderComp)
	sysB.Start(receiverComp)
	sysA.AwaitQuiescence()
	sysB.AwaitQuiescence()

	msgs := make([]*core.DataMsg, n)
	for i := range msgs {
		payload := make([]byte, 4)
		binary.BigEndian.PutUint32(payload, uint32(i))
		msgs[i] = &core.DataMsg{Hdr: core.NewHeader(selfA, selfB, core.DATA), Payload: payload}
	}
	sender.comp.SelfTrigger(sendAll{msgs: msgs})

	seen := make([]bool, n)
	last := map[core.Transport]int{core.TCP: -1, core.UDT: -1}
	count := map[core.Transport]int{}
	deadline := time.After(60 * time.Second)
	for got := 0; got < n; got++ {
		var m *core.DataMsg
		select {
		case m = <-receiver.recv:
		case <-deadline:
			t.Fatalf("received %d of %d messages (TCP %d, UDT %d)", got, n, count[core.TCP], count[core.UDT])
		}
		seq := int(binary.BigEndian.Uint32(m.Payload))
		proto := m.Hdr.Protocol()
		prev, ok := last[proto]
		switch {
		case !ok:
			t.Fatalf("message %d delivered over %v, want TCP or UDT", seq, proto)
		case seq >= n || seen[seq]:
			t.Fatalf("message %d delivered twice or out of range", seq)
		case seq <= prev:
			t.Fatalf("%v subsequence out of order: %d after %d", proto, seq, prev)
		}
		seen[seq] = true
		last[proto] = seq
		count[proto]++
	}
	for _, proto := range []core.Transport{core.TCP, core.UDT} {
		if count[proto] < n/4 {
			t.Fatalf("%v carried %d of %d messages, want at least a quarter", proto, count[proto], n)
		}
	}
}
