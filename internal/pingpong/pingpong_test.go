package pingpong

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/testnet"
)

func TestSerializationRoundTrip(t *testing.T) {
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	ping := &Ping{
		Src:   core.MustParseAddress("10.0.0.1:1"),
		Dst:   core.MustParseAddress("10.0.0.2:2"),
		Proto: core.TCP,
		Seq:   42,
	}
	pong := &Pong{
		Src:   core.MustParseAddress("10.0.0.2:2"),
		Dst:   core.MustParseAddress("10.0.0.1:1"),
		Proto: core.TCP,
		Seq:   42,
	}
	var buf bytes.Buffer
	if err := reg.Encode(&buf, ping); err != nil {
		t.Fatal(err)
	}
	if err := reg.Encode(&buf, pong); err != nil {
		t.Fatal(err)
	}
	v1, err := reg.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gotPing, ok := v1.(*Ping)
	if !ok || gotPing.Seq != 42 || gotPing.Proto != core.TCP {
		t.Fatalf("decoded ping = %#v", v1)
	}
	gotPong, ok := v2.(*Pong)
	if !ok || gotPong.Seq != 42 {
		t.Fatalf("decoded pong = %#v", v2)
	}
	if !gotPing.Header().Source().SameHostAs(ping.Src) {
		t.Fatal("ping header corrupted")
	}
}

func TestSerializersRejectWrongTypes(t *testing.T) {
	var buf bytes.Buffer
	if err := (pingSerializer{}).Serialize(&buf, 7); err == nil {
		t.Fatal("pingSerializer accepted an int")
	}
	if err := (pongSerializer{}).Serialize(&buf, 7); err == nil {
		t.Fatal("pongSerializer accepted an int")
	}
}

// rttWatcher collects RTT samples from the ping port.
type rttWatcher struct {
	port *kompics.Port
	comp *kompics.Component

	mu      sync.Mutex
	samples []RTTSample
}

type startPing struct{}

func (w *rttWatcher) Init(ctx *kompics.Context) {
	w.comp = ctx.Component()
	w.port = ctx.Requires(PingPort)
	ctx.Subscribe(w.port, RTTSample{}, func(e kompics.Event) {
		w.mu.Lock()
		w.samples = append(w.samples, e.(RTTSample))
		w.mu.Unlock()
	})
	ctx.SubscribeSelf(startPing{}, func(kompics.Event) {
		ctx.Trigger(StartPinging{}, w.port)
	})
}

func (w *rttWatcher) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.samples)
}

func freeTestPort(t *testing.T) int {
	t.Helper()
	p, err := testnet.FreePort(2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// waitForListener blocks until a TCP listener on 127.0.0.1:port accepts,
// failing the test if it never comes up.
func waitForListener(t *testing.T, port int) {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("listener on %s never came up", addr)
}

func TestPingPongOverLoopback(t *testing.T) {
	// Arm bufpool's leak accounting for the whole exchange; registered
	// before the systems' own Cleanups so the assertion runs (LIFO) after
	// both nodes shut down and every wire buffer has been recycled.
	bufpool.ResetStats()
	bufpool.SetDebug(true)
	t.Cleanup(func() {
		bufpool.SetDebug(false)
		if n := bufpool.Outstanding(); n != 0 {
			t.Errorf("bufpool leak: %d buffer(s) outstanding after shutdown", n)
		}
	})

	portA := freeTestPort(t)
	portB := freeTestPort(t)
	selfA := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", portA))
	selfB := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", portB))

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
		c := sys.Create(netDef)
		sys.Start(c)
		return sys, netDef
	}

	sysA, netA := newNode(selfA)
	sysB, netB := newNode(selfB)

	pinger := NewPinger(PingerConfig{
		Self: selfA, Dest: selfB, Proto: core.TCP,
		Interval: 5 * time.Millisecond, Count: 10,
	})
	pingerComp := sysA.Create(pinger)
	kompics.MustConnect(netA.Port(), pinger.NetPort())

	ponger := NewPonger(selfB)
	pongerComp := sysB.Create(ponger)
	kompics.MustConnect(netB.Port(), ponger.NetPort())

	watch := &rttWatcher{}
	watchComp := sysA.Create(watch)
	kompics.MustConnect(pinger.Port(), watch.port)

	sysA.Start(pingerComp)
	sysB.Start(pongerComp)
	sysA.Start(watchComp)
	// Listeners come up asynchronously on Start. A probe sent before the
	// ponger (or the pong's return path) accepts connections is lost to a
	// refused dial, and the pinger never resends a sequence number — so
	// wait for both sides before the first ping.
	waitForListener(t, portA)
	waitForListener(t, portB)
	watch.comp.SelfTrigger(startPing{})

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && watch.count() < 10 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := watch.count(); got < 10 {
		t.Fatalf("collected %d RTT samples, want 10", got)
	}
	watch.mu.Lock()
	defer watch.mu.Unlock()
	for _, s := range watch.samples {
		if s.RTT <= 0 || s.RTT > 5*time.Second {
			t.Fatalf("implausible RTT %v", s.RTT)
		}
	}
	if pinger.RTTs().N() < 10 {
		t.Fatalf("sample accessor has %d entries", pinger.RTTs().N())
	}
}
