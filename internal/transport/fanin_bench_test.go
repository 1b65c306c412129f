package transport

// Fan-in benchmark for the receive path: M sender endpoints on real
// loopback TCP sockets all pushing messages at ONE receiver endpoint.
// This is the mirror image of BenchmarkFanoutSend — where fan-out
// measures contention on the outgoing registry, fan-in measures the
// inbound half: accept, per-connection read loops, the inbound
// registry, and delivery into OnMessage (payloads are small, so socket
// bandwidth is not the limit). Run with
//
//	go test -run '^$' -bench FaninReceive -benchmem ./internal/transport/
//
// Each peer count runs at GOMAXPROCS 1, 4 and NumCPU; the procs=N
// sub-name keeps the three runs distinct. BENCH_fanin.json is a frozen
// record of an earlier run; nothing regenerates it.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

func benchFaninReceive(b *testing.B, peers int) {
	b.Helper()
	var received atomic.Int64
	target := int64(b.N)
	done := make(chan struct{}, 1)
	recv, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{wire.TCP},
		OnMessage: func(_ From, payload []byte) {
			bufpool.Put(payload)
			if received.Add(1) == target {
				select {
				case done <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	dest := recv.Addr(wire.TCP)

	senders := make([]*Endpoint, peers)
	for i := range senders {
		send, err := NewEndpoint(Config{
			ListenAddr: "127.0.0.1:0",
			Protocols:  []wire.Transport{wire.TCP},
			OnMessage:  func(From, []byte) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := send.Start(); err != nil {
			b.Fatal(err)
		}
		defer send.Close()
		senders[i] = send
	}

	var wg sync.WaitGroup
	var errs atomic.Int64
	var nextWorker atomic.Int64
	b.SetBytes(fanoutPayload)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Spread workers across sender endpoints so every inbound
		// connection sees traffic even when GOMAXPROCS < peers.
		i := int(nextWorker.Add(1))
		sem := make(chan struct{}, fanoutWindow)
		for pb.Next() {
			sem <- struct{}{}
			wg.Add(1)
			payload := bufpool.Get(fanoutPayload)
			senders[i%peers].Send(wire.TCP, dest, payload, func(err error) {
				if err != nil {
					errs.Add(1)
				}
				wg.Done()
				<-sem
			})
			i++
		}
	})
	wg.Wait() // every notify fired
	if errs.Load() > 0 {
		b.Fatalf("%d sends failed", errs.Load())
	}
	<-done // every payload received
	b.StopTimer()
}

// BenchmarkFaninReceive measures msgs/sec (1 op = 1 message) from M
// loopback TCP sender endpoints into one receiver endpoint. GOMAXPROCS
// is set per sub-benchmark (instead of -cpu) so each level keeps a
// distinct name in BENCH_fanin.json.
func BenchmarkFaninReceive(b *testing.B) {
	for _, peers := range []int{1, 16} {
		for _, procs := range fanoutProcs() {
			b.Run(fmt.Sprintf("peers=%d/procs=%d", peers, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				benchFaninReceive(b, peers)
			})
		}
	}
}
