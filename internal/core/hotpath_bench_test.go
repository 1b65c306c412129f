package core

// Hot-path micro-benchmarks: the encode → frame → decode round trip every
// remote message pays (§V of the paper measures the end-to-end effect; these
// isolate the middleware's own per-message overhead). Run with
//
//	go test -run '^$' -bench WirePath -benchmem ./internal/core/
//
// BENCH_hotpath.json is a frozen record of an earlier run; nothing
// regenerates it. The payload is incompressible
// (random) bytes, mirroring the paper's choice of incompressible data so
// the compression stage cannot flatter throughput.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
)

// benchWirePath drives one full round trip per iteration: serialise +
// compress (Network.encode), frame for a stream transport, unframe, then
// decompress + decode (Network.decodeWire). Buffer ownership follows the
// production contract: the frame writer releases the encoded payload after
// the write (as outChannel does) and decodeWire consumes the inbound
// buffer (as Network.receive calls it on the read goroutine).
func benchWirePath(b *testing.B, comp codec.Compressor, size int) {
	b.Helper()
	n, err := NewNetwork(NetworkConfig{
		Self:       MustParseAddress("10.0.0.1:1000"),
		Compressor: comp,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(payload)
	msg := &DataMsg{
		Hdr: NewHeader(
			MustParseAddress("10.0.0.1:1000"),
			MustParseAddress("10.0.0.2:2000"),
			TCP,
		),
		Payload: payload,
	}

	var frame bytes.Buffer
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := n.encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		frame.Reset()
		if err := codec.WriteFrame(&frame, wire, 0); err != nil {
			b.Fatal(err)
		}
		bufpool.Put(wire) // the transport's release after a completed write
		inbound, err := codec.ReadFrame(&frame, 0)
		if err != nil {
			b.Fatal(err)
		}
		got, err := n.decodeWire(inbound)
		if err != nil {
			b.Fatal(err)
		}
		if got.(*DataMsg).Payload[size-1] != payload[size-1] {
			b.Fatal("payload corrupted in round trip")
		}
	}
}

// BenchmarkWirePathEncodeFrameDecode measures the full codec round trip
// with the compression stage disabled (framing + serialisation only).
func BenchmarkWirePathEncodeFrameDecode(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("noop/%dB", size), func(b *testing.B) {
			benchWirePath(b, codec.Noop{}, size)
		})
	}
}

// BenchmarkWirePathEncodeFrameDecodeFlate measures the same round trip with
// the default-on DEFLATE stage (incompressible payload: the compressor runs
// but its output is discarded in favour of the raw bytes, the paper's worst
// case).
func BenchmarkWirePathEncodeFrameDecodeFlate(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("flate/%dB", size), func(b *testing.B) {
			benchWirePath(b, codec.NewFlate(-1), size)
		})
	}
}
