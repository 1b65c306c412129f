package relay_test

import (
	"fmt"
	"log"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/relay"
	"github.com/kompics/kompicsmessaging-go/internal/testnet"
)

// app consumes routed messages addressed to this node and replies
// directly to the origin.
type app struct {
	name  string
	self  core.BasicAddress
	names map[string]string // node names by address

	port *kompics.Port
	comp *kompics.Component
	out  chan string
}

type send struct{ e kompics.Event }

func (a *app) Init(ctx *kompics.Context) {
	a.comp = ctx.Component()
	a.port = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(a.port, (*core.Msg)(nil), func(e kompics.Event) {
		m, ok := e.(*relay.RoutedMsg)
		if !ok {
			return
		}
		if m.Hdr.Route != nil && m.Hdr.Route.HasNext() {
			return // a Forwarder on this node will relay it
		}
		if !a.self.SameHostAs(m.Hdr.Destination()) {
			return
		}
		a.out <- fmt.Sprintf("%s received %q (source: %s)",
			a.name, m.Payload, a.names[m.Hdr.Source().AsSocket()])
		if string(m.Payload) != "direct reply" {
			reply := &relay.RoutedMsg{
				Hdr: core.RoutingHeader{
					Base: core.NewHeader(a.self, m.Hdr.Source(), core.TCP),
				},
				Payload: []byte("direct reply"),
			}
			ctx.Trigger(reply, a.port)
		}
	})
	ctx.SubscribeSelf(send{}, func(e kompics.Event) {
		ctx.Trigger(e.(send).e, a.port)
	})
}

type relayNode struct {
	self core.BasicAddress
	sys  *kompics.System
	app  *app
	fwd  *relay.Forwarder
}

// startNode boots a node running an app and a forwarder and returns once
// its listeners are bound.
func startNode(name string, names map[string]string, out chan string) *relayNode {
	port, err := testnet.FreePort(2)
	if err != nil {
		log.Fatal(err)
	}
	self := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
	names[self.AsSocket()] = name
	reg := core.NewRegistry()
	if err := relay.Register(reg); err != nil {
		log.Fatal(err)
	}
	netDef, err := core.NewNetwork(core.NetworkConfig{Self: self, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	sys := kompics.NewSystem()
	netComp := sys.Create(netDef)

	a := &app{name: name, self: self, names: names, out: out}
	appComp := sys.Create(a)
	kompics.MustConnect(netDef.Port(), a.port)

	fwd := relay.NewForwarder(self)
	fwdComp := sys.Create(fwd)
	kompics.MustConnect(netDef.Port(), fwd.NetPort())

	sys.Start(netComp)
	sys.Start(appComp)
	sys.Start(fwdComp)
	sys.AwaitQuiescence()
	return &relayNode{self: self, sys: sys, app: a, fwd: fwd}
}

// A message travels origin → relay → final over real loopback
// connections, and the final node replies directly to the origin: the
// forwarding design the paper's Header interface enables (§III-A,
// listing 5).
func Example() {
	out := make(chan string, 8)
	names := map[string]string{}
	origin := startNode("origin", names, out)
	defer origin.sys.Shutdown()
	hop := startNode("relay", names, out)
	defer hop.sys.Shutdown()
	final := startNode("final", names, out)
	defer final.sys.Shutdown()

	msg, err := relay.NewRoutedMsg(origin.self,
		[]core.Address{hop.self, final.self},
		core.TCP, []byte("hello through a relay"))
	if err != nil {
		log.Fatal(err)
	}
	origin.app.comp.SelfTrigger(send{e: msg})
	for i := 0; i < 2; i++ {
		select {
		case line := <-out:
			fmt.Println(line)
		case <-time.After(10 * time.Second):
			fmt.Println("timed out")
			return
		}
	}
	hop.sys.AwaitQuiescence()
	fmt.Printf("relay forwarded %d message(s); the reply bypassed it\n", hop.fwd.Forwarded())
	// Output:
	// final received "hello through a relay" (source: origin)
	// origin received "direct reply" (source: final)
	// relay forwarded 1 message(s); the reply bypassed it
}
