package vnet_test

import (
	"fmt"
	"log"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/testnet"
	"github.com/kompics/kompicsmessaging-go/internal/vnet"
)

// worker is one vnode: it answers any message with an acknowledgement to
// the sender's vnode.
type worker struct {
	id   []byte
	self core.BasicAddress

	net  *kompics.Port
	comp *kompics.Component
	out  chan string
}

type sendTo struct {
	dst     vnet.Address
	payload string
}

func (w *worker) Init(ctx *kompics.Context) {
	w.comp = ctx.Component()
	w.net = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(w.net, (*core.Msg)(nil), func(e kompics.Event) {
		m, ok := e.(*vnet.Msg)
		if !ok {
			return
		}
		w.out <- fmt.Sprintf("vnode %q received %q from vnode %q", w.id, m.Payload, m.Src.ID)
		if string(m.Payload) != "ack" {
			reply := &vnet.Msg{
				Src: m.Dst, Dst: m.Src, Proto: core.TCP, Payload: []byte("ack"),
			}
			ctx.Trigger(reply, w.net)
		}
	})
	ctx.SubscribeSelf(sendTo{}, func(e kompics.Event) {
		req := e.(sendTo)
		msg := &vnet.Msg{
			Src:     vnet.NewAddress(w.self, w.id),
			Dst:     req.dst,
			Proto:   core.TCP,
			Payload: []byte(req.payload),
		}
		ctx.Trigger(msg, w.net)
	})
}

// Several addressable component subtrees (vnodes) share one network
// endpoint. Intra-host messages are reflected by the network component
// without serialisation and routed to the right vnode by channel
// selectors (§III-B of the paper).
func Example() {
	port, err := testnet.FreePort(2)
	if err != nil {
		log.Fatal(err)
	}
	self := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
	reg := core.NewRegistry()
	if err := vnet.Register(reg); err != nil {
		log.Fatal(err)
	}
	netDef, err := core.NewNetwork(core.NetworkConfig{Self: self, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	sys := kompics.NewSystem()
	defer sys.Shutdown()
	netComp := sys.Create(netDef)

	out := make(chan string, 8)
	mk := func(id string) *worker {
		w := &worker{id: []byte(id), self: self, out: out}
		c := sys.Create(w)
		// The vnet selector is the VirtualNetworkChannel: only messages
		// addressed to this vnode cross the channel.
		kompics.MustConnect(netDef.Port(), w.net,
			kompics.WithIndicationSelector(vnet.Selector([]byte(id))))
		sys.Start(c)
		return w
	}
	storage := mk("storage")
	mk("compute")
	sys.Start(netComp)

	// storage → compute on the same host: reflected locally, never
	// serialised, and delivered only to the "compute" subtree.
	storage.comp.SelfTrigger(sendTo{
		dst:     vnet.NewAddress(self, []byte("compute")),
		payload: "task: index shard 7",
	})
	for i := 0; i < 2; i++ {
		select {
		case line := <-out:
			fmt.Println(line)
		case <-time.After(10 * time.Second):
			fmt.Println("timed out")
			return
		}
	}
	// Output:
	// vnode "compute" received "task: index shard 7" from vnode "storage"
	// vnode "storage" received "ack" from vnode "compute"
}
