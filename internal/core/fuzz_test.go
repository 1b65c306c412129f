package core

import (
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
)

// FuzzDecodeWire feeds arbitrary bytes to decodeWire, the surface a
// hostile peer controls: garbage must come back as an error (or be
// ignored, for the empty payload), never as a panic. Each input goes in
// as a pooled copy because decodeWire consumes its buffer.
func FuzzDecodeWire(f *testing.F) {
	self := MustParseAddress("10.0.0.1:1000")
	msg := &DataMsg{
		Hdr:     NewHeader(self, MustParseAddress("10.0.0.2:2000"), TCP),
		Payload: decodePayload(7),
	}
	// encode returns msg's wire form under comp and the network that made it.
	encode := func(comp codec.Compressor) ([]byte, *Network) {
		n, err := NewNetwork(NetworkConfig{Self: self, Compressor: comp})
		if err != nil {
			f.Fatal(err)
		}
		wire, err := n.encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		return wire, n
	}
	raw, _ := encode(codec.Noop{})
	packed, n := encode(nil) // the default compressor, flate
	if raw[0] != wireRaw || packed[0] != wireCompressed {
		f.Fatalf("seed flags = %d, %d; want raw, compressed", raw[0], packed[0])
	}
	f.Add(raw)
	f.Add(packed)
	f.Add([]byte{wireCompressed, 0xde, 0xad, 0xbe, 0xef})
	f.Add(raw[:len(raw)/4]) // header cut short
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		payload := bufpool.Get(len(b))
		copy(payload, b)
		got, err := n.decodeWire(payload)
		if err == nil && got == nil && len(b) != 0 {
			t.Fatalf("decodeWire(%x) returned neither a message nor an error", b)
		}
	})
}
