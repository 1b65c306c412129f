package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
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

// refReadBasicHeader is the reference decode: ReadBasicHeader as it was
// before the address cache, every address through ReadAddress.
func refReadBasicHeader(r io.Reader) (BasicHeader, error) {
	src, err := ReadAddress(r)
	if err != nil {
		return BasicHeader{}, err
	}
	dst, err := ReadAddress(r)
	if err != nil {
		return BasicHeader{}, err
	}
	proto, err := codec.ReadUvarint(r)
	if err != nil {
		return BasicHeader{}, err
	}
	h := BasicHeader{Src: src, Dst: dst, Proto: Transport(proto &^ qosFlag)}
	if !h.Proto.Valid() {
		return BasicHeader{}, fmt.Errorf("core: invalid transport %d on wire", proto&^qosFlag)
	}
	if proto&qosFlag == 0 {
		return h, nil
	}
	class, err := codec.ReadUvarint(r)
	if err != nil {
		return BasicHeader{}, err
	}
	if !QoSClass(class).Valid() {
		return BasicHeader{}, fmt.Errorf("core: invalid QoS class %d on wire", class)
	}
	key, err := codec.ReadString(r)
	if err != nil {
		return BasicHeader{}, err
	}
	deadline, err := codec.ReadVarint(r)
	if err != nil {
		return BasicHeader{}, err
	}
	h.QoS = QoS{Class: QoSClass(class), Key: key, Deadline: deadline}
	return h, nil
}

// FuzzReadBasicHeader is differential: whatever the bytes, the cached
// decode must agree with the uncached reference on the header, the error
// and the bytes consumed.
func FuzzReadBasicHeader(f *testing.F) {
	var buf bytes.Buffer
	h := NewHeader(MustParseAddress("10.0.0.1:1000"), MustParseAddress("[2001:db8::2]:2000"), TCP)
	if err := WriteBasicHeader(&buf, h); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		got, err := ReadBasicHeader(r)
		ref := bytes.NewReader(b)
		want, wantErr := refReadBasicHeader(ref)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("cached decode error %v, reference %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cached decode %#v, reference %#v", got, want)
		}
		if r.Len() != ref.Len() {
			t.Fatalf("cached decode left %d bytes, reference %d", r.Len(), ref.Len())
		}
	})
}
