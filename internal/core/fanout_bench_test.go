package core

// Fan-out benchmark for the component-level send path: one sender Network
// component fanning NotifyReq messages out to N receiver Network nodes
// over loopback TCP, with GOMAXPROCS producer goroutines injecting into
// the sender's mailbox. Where the transport-level BenchmarkFanoutSend
// isolates registry contention, this one additionally covers the encode
// stage (serialise + optional compress) that the parallel codec stage
// lifts off the component thread. Run via
//
//	go test -bench FanoutSendNetwork -run '^$' -benchmem ./internal/core/
//
// The payload is incompressible so flate cannot flatter throughput; the
// procs=N sub-name keeps each GOMAXPROCS level distinct.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

const fanoutMsgSize = 1 << 10

// fanoutRecvApp counts inbound messages on a receiver node.
type fanoutRecvApp struct {
	net      *kompics.Port
	received *atomic.Int64
}

func (a *fanoutRecvApp) Init(ctx *kompics.Context) {
	a.net = ctx.Requires(NetworkPort)
	ctx.Subscribe(a.net, (*Msg)(nil), func(e kompics.Event) {
		a.received.Add(1)
	})
}

// fanoutSendApp publishes NotifyReq events injected via SelfTrigger and
// releases one window slot per NotifyResp.
type fanoutSendApp struct {
	net  *kompics.Port
	comp *kompics.Component
	wg   *sync.WaitGroup
	sem  chan struct{}
	errs *atomic.Int64
}

type fanoutSendReq struct{ req NotifyReq }

func (a *fanoutSendApp) Init(ctx *kompics.Context) {
	a.comp = ctx.Component()
	a.net = ctx.Requires(NetworkPort)
	ctx.Subscribe(a.net, NotifyResp{}, func(e kompics.Event) {
		if e.(NotifyResp).Err != nil {
			a.errs.Add(1)
		}
		a.wg.Done()
		<-a.sem
	})
	ctx.SubscribeSelf(fanoutSendReq{}, func(e kompics.Event) {
		ctx.Trigger(e.(fanoutSendReq).req, a.net)
	})
}

// benchNode starts one Network on an ephemeral loopback port and returns
// its bound TCP address.
func benchFanoutNode(b *testing.B, selfPort int, comp codec.Compressor, recvCount *atomic.Int64) (*kompics.System, *Network, string) {
	b.Helper()
	self := MustParseAddress(fmt.Sprintf("127.0.0.1:%d", selfPort))
	netDef, err := NewNetwork(NetworkConfig{
		Self:       self,
		ListenAddr: "127.0.0.1:0",
		Protocols:  []Transport{TCP},
		Compressor: comp,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys := kompics.NewSystem()
	netComp := sys.Create(netDef)
	if recvCount != nil {
		app := &fanoutRecvApp{received: recvCount}
		appComp := sys.Create(app)
		kompics.MustConnect(netDef.Port(), app.net)
		sys.Start(appComp)
	}
	sys.Start(netComp)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && netDef.Addr(TCP) == "" {
		time.Sleep(time.Millisecond)
	}
	addr := netDef.Addr(TCP)
	if addr == "" {
		sys.Shutdown()
		b.Fatal("network did not bind")
	}
	return sys, netDef, addr
}

func benchFanoutNetwork(b *testing.B, peers int, comp func() codec.Compressor) {
	b.Helper()
	var received atomic.Int64
	dests := make([]Address, peers)
	for i := 0; i < peers; i++ {
		sys, _, addr := benchFanoutNode(b, 1, comp(), &received)
		defer sys.Shutdown()
		dests[i] = MustParseAddress(addr)
	}

	self := MustParseAddress("127.0.0.1:2")
	sendDef, err := NewNetwork(NetworkConfig{
		Self:       self,
		ListenAddr: "127.0.0.1:0",
		Protocols:  []Transport{TCP},
		Compressor: comp(),
	})
	if err != nil {
		b.Fatal(err)
	}
	sendSys := kompics.NewSystem()
	defer sendSys.Shutdown()
	sendComp := sendSys.Create(sendDef)
	var wg sync.WaitGroup
	var errs atomic.Int64
	sem := make(chan struct{}, 64*runtime.GOMAXPROCS(0))
	app := &fanoutSendApp{wg: &wg, sem: sem, errs: &errs}
	appComp := sendSys.Create(app)
	kompics.MustConnect(sendDef.Port(), app.net)
	sendSys.Start(sendComp)
	sendSys.Start(appComp)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sendDef.Addr(TCP) == "" {
		time.Sleep(time.Millisecond)
	}
	if sendDef.Addr(TCP) == "" {
		b.Fatal("sender network did not bind")
	}
	payload := make([]byte, fanoutMsgSize)
	rand.New(rand.NewSource(1)).Read(payload)
	msgs := make([]*DataMsg, peers)
	for i, d := range dests {
		msgs[i] = &DataMsg{Hdr: NewHeader(self, d, TCP), Payload: payload}
	}

	var nextWorker, nextID atomic.Int64
	b.SetBytes(fanoutMsgSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(nextWorker.Add(1))
		for pb.Next() {
			sem <- struct{}{}
			wg.Add(1)
			app.comp.SelfTrigger(fanoutSendReq{req: NotifyReq{
				ID:  uint64(nextID.Add(1)),
				Msg: msgs[i%peers],
			}})
			i++
		}
	})
	wg.Wait()
	if errs.Load() > 0 {
		b.Fatalf("%d sends failed", errs.Load())
	}
	deadline = time.Now().Add(30 * time.Second)
	for received.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	if received.Load() < int64(b.N) {
		b.Fatalf("received %d of %d messages", received.Load(), b.N)
	}
}

// fanoutProcs returns the deduplicated GOMAXPROCS levels the scaling table
// records: 1, 4 and NumCPU.
func fanoutProcs() []int {
	out := []int{1}
	for _, p := range []int{4, runtime.NumCPU()} {
		if p > out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkFanoutSendNetwork measures component-level fan-out throughput
// (1 op = 1 message end to end: mailbox → encode → transport → decode).
// GOMAXPROCS is set per sub-benchmark (instead of -cpu) so each level
// keeps a distinct name.
func BenchmarkFanoutSendNetwork(b *testing.B) {
	for _, tc := range []struct {
		name string
		comp func() codec.Compressor
	}{
		{"noop", func() codec.Compressor { return codec.Noop{} }},
		{"flate", func() codec.Compressor { return codec.NewFlate(-1) }},
	} {
		for _, procs := range fanoutProcs() {
			b.Run(fmt.Sprintf("peers=16/comp=%s/procs=%d", tc.name, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				benchFanoutNetwork(b, 16, tc.comp)
			})
		}
	}
}
