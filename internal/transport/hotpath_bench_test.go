package transport

// Loopback benchmarks for the wire hot path: real sockets, real syscalls,
// measuring the per-message cost of Endpoint.Send → outChannel →
// readFrames/UDP reader → OnMessage. Run with
//
//	go test -run '^$' -bench WirePath -benchmem ./internal/transport/
//
// BENCH_hotpath.json is a frozen record of an earlier run; nothing
// regenerates it.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/udt"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// benchLoopback pumps b.N payloads of the given size through a pair of
// endpoints on the OS loopback and waits for full receipt (TCP) or for the
// final write to complete (UDP, where the loopback may drop datagrams under
// benchmark load, but the send path is what we measure).
func benchLoopback(b *testing.B, proto wire.Transport, size int) {
	b.Helper()
	var received atomic.Int64
	done := make(chan struct{}, 1)
	target := int64(b.N)
	benchUDT := udt.Config{MaxRate: 1 << 30}
	recv, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{proto},
		UDT:        benchUDT,
		OnMessage: func(_ From, payload []byte) {
			bufpool.Put(payload) // receiver owns the buffer; recycle it
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

	send, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{proto},
		UDT:        benchUDT,
		OnMessage:  func(From, []byte) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := send.Start(); err != nil {
		b.Fatal(err)
	}
	defer send.Close()

	dest := recv.Addr(proto)
	sent := make(chan error, 1)
	lastNotify := func(err error) { sent <- err }

	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := bufpool.Get(size)
		var notify func(error)
		if i == b.N-1 {
			notify = lastNotify
		}
		send.Send(proto, dest, payload, notify)
	}
	if err := <-sent; err != nil {
		b.Fatal(err)
	}
	if proto != wire.UDP {
		<-done // reliable streams (TCP, UDT) wait for full receipt
	}
	b.StopTimer()
}

// BenchmarkWirePathTCPLoopback measures framed, batched stream sends over
// real TCP loopback sockets, end to end to OnMessage.
func BenchmarkWirePathTCPLoopback(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchLoopback(b, wire.TCP, size)
		})
	}
}

// BenchmarkWirePathUDTLoopback measures framed sends over the userspace
// UDT stream (paced, ACKed, reassembled), end to end to OnMessage — the
// per-message cost of the paper's bulk-data transport choice.
func BenchmarkWirePathUDTLoopback(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchLoopback(b, wire.UDT, size)
		})
	}
}

// BenchmarkWirePathUDPLoopback measures the datagram send path (routing
// resolution + socket write) over the real UDP loopback socket.
func BenchmarkWirePathUDPLoopback(b *testing.B) {
	for _, size := range []int{1 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchLoopback(b, wire.UDP, size)
		})
	}
}
