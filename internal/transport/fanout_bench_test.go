package transport

// Fan-out benchmark for the send path: N receiver endpoints on real
// loopback TCP sockets, GOMAXPROCS sender goroutines pushing messages
// round-robin through ONE sender endpoint — many peers behind a single
// endpoint (§II-B) with concurrent producers, so it measures contention
// on the outgoing registry and channel queues, not socket bandwidth
// (payloads are small). It is the evidence a striped registry would have
// to win on (DESIGN.md §12). Run via
//
//	go test -bench FanoutSend -run '^$' -benchmem ./internal/transport/
//
// The benchmark sweeps GOMAXPROCS 1, 4 and NumCPU itself; the procs=N
// sub-name keeps each level distinct.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// fanoutWindow bounds in-flight messages per sender goroutine so the
// benchmark exercises steady-state throughput instead of filling
// MaxPendingPerPeer and measuring ErrQueueFull.
const fanoutWindow = 64

const fanoutPayload = 256

func benchFanoutSend(b *testing.B, peers int) {
	b.Helper()
	var received atomic.Int64
	target := int64(b.N)
	done := make(chan struct{}, 1)
	dests := make([]string, peers)
	for i := 0; i < peers; i++ {
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
		dests[i] = recv.Addr(wire.TCP)
	}

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

	var wg sync.WaitGroup
	var errs atomic.Int64
	var nextWorker atomic.Int64
	b.SetBytes(fanoutPayload)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Spread workers across peers so every peer sees traffic even
		// when GOMAXPROCS < peers.
		i := int(nextWorker.Add(1))
		sem := make(chan struct{}, fanoutWindow)
		for pb.Next() {
			sem <- struct{}{}
			wg.Add(1)
			payload := bufpool.Get(fanoutPayload)
			send.Send(wire.TCP, dests[i%peers], payload, func(err error) {
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

// BenchmarkFanoutSend measures msgs/sec (1 op = 1 message) through one
// endpoint to N loopback TCP peers with concurrent producers. GOMAXPROCS
// is set per sub-benchmark (instead of -cpu) so each level keeps a
// distinct name.
func BenchmarkFanoutSend(b *testing.B) {
	for _, peers := range []int{1, 16} {
		for _, procs := range fanoutProcs() {
			b.Run(fmt.Sprintf("peers=%d/procs=%d", peers, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				benchFanoutSend(b, peers)
			})
		}
	}
}
