package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

// --- primitives -------------------------------------------------------------

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64}
	for _, v := range values {
		var buf bytes.Buffer
		if err := WriteUvarint(&buf, v); err != nil {
			t.Fatalf("WriteUvarint(%d): %v", v, err)
		}
		got, err := ReadUvarint(&buf)
		if err != nil {
			t.Fatalf("ReadUvarint(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d → %d", v, got)
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64}
	for _, v := range values {
		var buf bytes.Buffer
		if err := WriteVarint(&buf, v); err != nil {
			t.Fatalf("WriteVarint(%d): %v", v, err)
		}
		got, err := ReadVarint(&buf)
		if err != nil {
			t.Fatalf("ReadVarint(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d → %d", v, got)
		}
	}
}

func TestFixedWidthRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUint16(&buf, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := WriteUint32(&buf, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if err := WriteUint64(&buf, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	if err := WriteBool(&buf, true); err != nil {
		t.Fatal(err)
	}
	if err := WriteBool(&buf, false); err != nil {
		t.Fatal(err)
	}

	if v, err := ReadUint16(&buf); err != nil || v != 0xBEEF {
		t.Fatalf("ReadUint16 = %x, %v", v, err)
	}
	if v, err := ReadUint32(&buf); err != nil || v != 0xDEADBEEF {
		t.Fatalf("ReadUint32 = %x, %v", v, err)
	}
	if v, err := ReadUint64(&buf); err != nil || v != 0x0123456789ABCDEF {
		t.Fatalf("ReadUint64 = %x, %v", v, err)
	}
	if v, err := ReadBool(&buf); err != nil || v != true {
		t.Fatalf("ReadBool = %v, %v", v, err)
	}
	if v, err := ReadBool(&buf); err != nil || v != false {
		t.Fatalf("ReadBool = %v, %v", v, err)
	}
}

func TestReadTruncated(t *testing.T) {
	tests := []struct {
		name string
		read func(io.Reader) error
	}{
		{"uint16", func(r io.Reader) error { _, err := ReadUint16(r); return err }},
		{"uint32", func(r io.Reader) error { _, err := ReadUint32(r); return err }},
		{"uint64", func(r io.Reader) error { _, err := ReadUint64(r); return err }},
		{"bool", func(r io.Reader) error { _, err := ReadBool(r); return err }},
		{"bytes", func(r io.Reader) error { _, err := ReadBytes(r); return err }},
		{"string", func(r io.Reader) error { _, err := ReadString(r); return err }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.read(bytes.NewReader(nil)); err == nil {
				t.Fatal("reading from empty source succeeded")
			}
		})
	}
}

func TestBytesAndStringRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 0, 255}
	if err := WriteBytes(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteString(&buf, "héllo"); err != nil {
		t.Fatal(err)
	}
	if err := WriteBytes(&buf, nil); err != nil {
		t.Fatal(err)
	}

	b, err := ReadBytes(&buf)
	if err != nil || !bytes.Equal(b, payload) {
		t.Fatalf("ReadBytes = %v, %v", b, err)
	}
	s, err := ReadString(&buf)
	if err != nil || s != "héllo" {
		t.Fatalf("ReadString = %q, %v", s, err)
	}
	b, err = ReadBytes(&buf)
	if err != nil || len(b) != 0 {
		t.Fatalf("ReadBytes(empty) = %v, %v", b, err)
	}
}

func TestReadBytesRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUvarint(&buf, uint64(maxChunk)+1); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBytes(&buf); !errors.Is(err, ErrValueOutOfBounds) {
		t.Fatalf("err = %v, want ErrValueOutOfBounds", err)
	}
}

func TestPropertyPrimitiveRoundTrips(t *testing.T) {
	f := func(u uint64, i int64, b []byte, s string) bool {
		var buf bytes.Buffer
		if WriteUvarint(&buf, u) != nil || WriteVarint(&buf, i) != nil ||
			WriteBytes(&buf, b) != nil || WriteString(&buf, s) != nil {
			return false
		}
		gu, err := ReadUvarint(&buf)
		if err != nil || gu != u {
			return false
		}
		gi, err := ReadVarint(&buf)
		if err != nil || gi != i {
			return false
		}
		gb, err := ReadBytes(&buf)
		if err != nil || !bytes.Equal(gb, b) {
			return false
		}
		gs, err := ReadString(&buf)
		return err == nil && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- registry ----------------------------------------------------------------

type testMsg struct {
	A uint32
	B string
}

type testMsgSerializer struct{}

func (testMsgSerializer) ID() SerializerID { return 7 }

func (testMsgSerializer) Serialize(w io.Writer, v interface{}) error {
	m := v.(testMsg)
	if err := WriteUint32(w, m.A); err != nil {
		return err
	}
	return WriteString(w, m.B)
}

func (testMsgSerializer) Deserialize(r io.Reader) (interface{}, error) {
	a, err := ReadUint32(r)
	if err != nil {
		return nil, err
	}
	b, err := ReadString(r)
	if err != nil {
		return nil, err
	}
	return testMsg{A: a, B: b}, nil
}

type otherSerializer struct{ id SerializerID }

func (s otherSerializer) ID() SerializerID { return s.id }
func (s otherSerializer) Serialize(io.Writer, interface{}) error {
	return nil
}
func (s otherSerializer) Deserialize(io.Reader) (interface{}, error) {
	return nil, nil
}

func TestRegistryEncodeDecode(t *testing.T) {
	var reg Registry
	reg.MustRegister(testMsgSerializer{}, testMsg{})

	var buf bytes.Buffer
	in := testMsg{A: 42, B: "hello"}
	if err := reg.Encode(&buf, in); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := reg.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
}

func TestRegistryDuplicateID(t *testing.T) {
	var reg Registry
	reg.MustRegister(testMsgSerializer{}, testMsg{})
	err := reg.Register(otherSerializer{id: 7})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestRegistryDuplicateType(t *testing.T) {
	var reg Registry
	reg.MustRegister(testMsgSerializer{}, testMsg{})
	err := reg.Register(otherSerializer{id: 9}, testMsg{})
	if !errors.Is(err, ErrDuplicateType) {
		t.Fatalf("err = %v, want ErrDuplicateType", err)
	}
}

func TestRegistryReregisterSameSerializerNewTypes(t *testing.T) {
	var reg Registry
	s := testMsgSerializer{}
	reg.MustRegister(s, testMsg{})
	if err := reg.Register(s); err != nil {
		t.Fatalf("re-registering the same serializer errored: %v", err)
	}
}

func TestRegistryNilPrototype(t *testing.T) {
	var reg Registry
	if err := reg.Register(testMsgSerializer{}, nil); err == nil {
		t.Fatal("registering untyped nil prototype succeeded")
	}
}

func TestRegistryUnknownType(t *testing.T) {
	var reg Registry
	var buf bytes.Buffer
	if err := reg.Encode(&buf, 42); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestRegistryUnknownID(t *testing.T) {
	var reg Registry
	var buf bytes.Buffer
	if err := WriteUvarint(&buf, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decode(&buf); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
}

func TestRegistryDecodeHugeID(t *testing.T) {
	var reg Registry
	var buf bytes.Buffer
	if err := WriteUvarint(&buf, 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decode(&buf); !errors.Is(err, ErrValueOutOfBounds) {
		t.Fatalf("err = %v, want ErrValueOutOfBounds", err)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	var reg Registry
	reg.MustRegister(testMsgSerializer{}, testMsg{})
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister on duplicate must panic")
		}
	}()
	reg.MustRegister(otherSerializer{id: 7})
}

// --- framing -----------------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 65536)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p, 0); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame mismatch: %d bytes vs %d", len(got), len(p))
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("trailing read err = %v, want io.EOF", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, make([]byte, 100), 10)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFramePartial(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Truncated header as well.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("header err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		for _, p := range payloads {
			if len(p) > DefaultMaxFrame {
				p = p[:DefaultMaxFrame]
			}
			if WriteFrame(&buf, p, 0) != nil {
				return false
			}
		}
		for _, p := range payloads {
			if len(p) > DefaultMaxFrame {
				p = p[:DefaultMaxFrame]
			}
			got, err := ReadFrame(&buf, 0)
			if err != nil || !bytes.Equal(got, p) {
				return false
			}
		}
		_, err := ReadFrame(&buf, 0)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- compression ---------------------------------------------------------------

func TestNoopCompressor(t *testing.T) {
	var c Noop
	in := []byte("data")
	out, err := c.Compress(in)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("Compress = %v, %v", out, err)
	}
	out, err = c.Decompress(in)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("Decompress = %v, %v", out, err)
	}
	if c.Name() != "noop" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestFlateRoundTrip(t *testing.T) {
	c := NewFlate(flate.BestSpeed)
	if c.Name() != "flate" {
		t.Fatalf("Name = %q", c.Name())
	}
	in := bytes.Repeat([]byte("compressible text "), 1000)
	packed, err := c.Compress(in)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if len(packed) >= len(in) {
		t.Fatalf("compressible input did not shrink: %d → %d", len(in), len(packed))
	}
	out, err := c.Decompress(packed)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("flate round trip mismatch")
	}
}

func TestFlateInvalidLevelFallsBack(t *testing.T) {
	c := NewFlate(1000)
	in := []byte("x")
	packed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(packed)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("round trip with fallback level failed: %v", err)
	}
}

func TestFlateDecompressGarbage(t *testing.T) {
	c := NewFlate(flate.DefaultCompression)
	packed, err := c.Compress(bytes.Repeat([]byte("compressible text "), 1000))
	if err != nil {
		t.Fatal(err)
	}
	// Garbage, and a stream cut short, which must not pass as a shorter
	// payload.
	for _, in := range [][]byte{{0xFF, 0x00, 0x12}, packed[:len(packed)/2]} {
		if _, err := c.Decompress(in); err == nil {
			t.Fatalf("decompressing garbage %x succeeded", in)
		}
	}
}

func TestFlatePooledWritersAreReusable(t *testing.T) {
	c := NewFlate(flate.BestSpeed)
	in := bytes.Repeat([]byte("abc"), 500)
	for i := 0; i < 10; i++ {
		packed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decompress(packed)
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("iteration %d: round trip failed: %v", i, err)
		}
	}
}

func TestPropertyFlateRoundTrip(t *testing.T) {
	c := NewFlate(flate.BestSpeed)
	f := func(in []byte) bool {
		packed, err := c.Compress(in)
		if err != nil {
			return false
		}
		out, err := c.Decompress(packed)
		return err == nil && bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
