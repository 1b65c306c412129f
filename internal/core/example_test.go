package core_test

import (
	"fmt"
	"log"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/testnet"
)

// greeter sends one greeting over each wire protocol and reports whatever
// it receives.
type greeter struct {
	name string
	self core.BasicAddress
	peer core.BasicAddress

	net  *kompics.Port
	comp *kompics.Component
	got  chan string
}

// sayHello asks the greeter (in component context) to send its greetings.
type sayHello struct{}

func (g *greeter) Init(ctx *kompics.Context) {
	g.comp = ctx.Component()
	g.net = ctx.Requires(core.NetworkPort)

	ctx.Subscribe(g.net, (*core.Msg)(nil), func(e kompics.Event) {
		if m, ok := e.(*core.DataMsg); ok {
			g.got <- fmt.Sprintf("%s received %q via %v",
				g.name, m.Payload, m.Header().Protocol())
		}
	})
	ctx.SubscribeSelf(sayHello{}, func(kompics.Event) {
		// The header's Transport field selects the protocol per message.
		for _, proto := range []core.Transport{core.TCP, core.UDP, core.UDT} {
			msg := &core.DataMsg{
				Hdr:     core.NewHeader(g.self, g.peer, proto),
				Payload: []byte(fmt.Sprintf("hello from %s over %v", g.name, proto)),
			}
			ctx.Trigger(msg, g.net)
		}
	})
}

// startGreeter boots a node running a greeter and returns once its
// listeners are bound.
func startGreeter(name string, self, peer core.BasicAddress, got chan string) (*greeter, *kompics.System) {
	netDef, err := core.NewNetwork(core.NetworkConfig{Self: self})
	if err != nil {
		log.Fatal(err)
	}
	sys := kompics.NewSystem()
	netComp := sys.Create(netDef)
	g := &greeter{name: name, self: self, peer: peer, got: got}
	gComp := sys.Create(g)
	kompics.MustConnect(netDef.Port(), g.net)
	sys.Start(netComp)
	sys.Start(gComp)
	sys.AwaitQuiescence()
	return g, sys
}

func loopback() core.BasicAddress {
	p, err := testnet.FreePort(2)
	if err != nil {
		log.Fatal(err)
	}
	return core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", p))
}

// Two nodes on loopback exchange greetings, each message choosing its
// transport: the middleware's per-message protocol selection.
func Example() {
	selfA, selfB := loopback(), loopback()
	got := make(chan string, 6)
	alice, sysA := startGreeter("alice", selfA, selfB, got)
	defer sysA.Shutdown()
	bob, sysB := startGreeter("bob", selfB, selfA, got)
	defer sysB.Shutdown()

	alice.comp.SelfTrigger(sayHello{})
	bob.comp.SelfTrigger(sayHello{})
	for i := 0; i < 6; i++ {
		select {
		case line := <-got:
			fmt.Println(line)
		case <-time.After(10 * time.Second):
			fmt.Println("timed out waiting for greetings")
			return
		}
	}
	// Unordered output:
	// alice received "hello from bob over TCP" via TCP
	// alice received "hello from bob over UDP" via UDP
	// alice received "hello from bob over UDT" via UDT
	// bob received "hello from alice over TCP" via TCP
	// bob received "hello from alice over UDP" via UDP
	// bob received "hello from alice over UDT" via UDT
}
