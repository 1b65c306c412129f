package core

// Fan-in benchmark for the component-level receive path: M sender
// Network components over loopback TCP all aimed at ONE receiver
// Network, with producer goroutines injecting into each sender's
// mailbox. Where the transport-level BenchmarkFaninReceive isolates the
// inbound registry and read loops, this one additionally covers the
// decode (decompress + decode) that each receiving read loop runs on
// every inbound frame, and the Trigger from that loop into the receiving
// app's mailbox. Run with
//
//	go test -run '^$' -bench FaninReceiveNetwork -benchmem ./internal/core/
//
// Unlike the fan-out benchmark — whose payload is incompressible so
// flate cannot flatter *encode* throughput — the fan-in payload is
// compressible on purpose: an incompressible payload ships with the
// raw flag and the receiver never decompresses, which would make the
// flate case measure nothing. What the flate rows show is what inbound
// decompress costs across concurrent peers, not codec ratios.
// The procs=N sub-name keeps GOMAXPROCS runs distinct; BENCH_fanin.json
// is a frozen record of an earlier run, and nothing regenerates it.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

const faninMsgSize = 1 << 10

// faninPayload is compressible (repeating text) so the sender actually
// ships compressed frames and the receiver's decode path runs inflate.
func faninPayload() []byte {
	p := make([]byte, faninMsgSize)
	pattern := []byte("the quick brown fox jumps over the lazy dog; ")
	for i := range p {
		p[i] = pattern[i%len(pattern)]
	}
	return p
}

func benchFaninNetwork(b *testing.B, peers int, comp func() codec.Compressor) {
	b.Helper()
	var received atomic.Int64
	recvSys, _, recvAddr := benchFanoutNode(b, 1, comp(), &received)
	defer recvSys.Shutdown()
	dest := MustParseAddress(recvAddr)

	// One sender Network per peer, each with its own injection app.
	var wg sync.WaitGroup
	var errs atomic.Int64
	sem := make(chan struct{}, 64*runtime.GOMAXPROCS(0))
	apps := make([]*fanoutSendApp, peers)
	msgs := make([]*DataMsg, peers)
	payload := faninPayload()
	for i := 0; i < peers; i++ {
		self := MustParseAddress(fmt.Sprintf("127.0.0.1:%d", 1000+i))
		sendDef, err := NewNetwork(NetworkConfig{
			Self:       self,
			ListenAddr: "127.0.0.1:0",
			Protocols:  []Transport{TCP},
			Compressor: comp(),
		})
		if err != nil {
			b.Fatal(err)
		}
		sys := kompics.NewSystem()
		defer sys.Shutdown()
		netComp := sys.Create(sendDef)
		app := &fanoutSendApp{wg: &wg, sem: sem, errs: &errs}
		appComp := sys.Create(app)
		kompics.MustConnect(sendDef.Port(), app.net)
		sys.Start(netComp)
		sys.Start(appComp)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && sendDef.Addr(TCP) == "" {
			time.Sleep(time.Millisecond)
		}
		if sendDef.Addr(TCP) == "" {
			b.Fatal("sender network did not bind")
		}
		apps[i] = app
		msgs[i] = &DataMsg{Hdr: NewHeader(self, dest, TCP), Payload: payload}
	}

	var nextWorker, nextID atomic.Int64
	b.SetBytes(faninMsgSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Spread workers across sender nodes so every inbound connection
		// at the receiver carries traffic even when GOMAXPROCS < peers.
		i := int(nextWorker.Add(1))
		for pb.Next() {
			sem <- struct{}{}
			wg.Add(1)
			apps[i%peers].comp.SelfTrigger(fanoutSendReq{req: NotifyReq{
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
	deadline := time.Now().Add(30 * time.Second)
	for received.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	if received.Load() < int64(b.N) {
		b.Fatalf("received %d of %d messages", received.Load(), b.N)
	}
}

// BenchmarkFaninReceiveNetwork measures component-level fan-in
// throughput (1 op = 1 message end to end: sender mailbox → encode →
// transport → receiver decode → delivery). GOMAXPROCS is set per
// sub-benchmark (instead of -cpu) so each level keeps a distinct name
// in BENCH_fanin.json.
func BenchmarkFaninReceiveNetwork(b *testing.B) {
	for _, tc := range []struct {
		name string
		comp func() codec.Compressor
	}{
		{"raw", func() codec.Compressor { return codec.Noop{} }},
		{"flate", func() codec.Compressor { return codec.NewFlate(-1) }},
	} {
		for _, procs := range fanoutProcs() {
			b.Run(fmt.Sprintf("peers=16/comp=%s/procs=%d", tc.name, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				benchFaninNetwork(b, 16, tc.comp)
			})
		}
	}
}
