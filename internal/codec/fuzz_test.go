package codec

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// TestPropertyDecodeNeverPanicsOnGarbage feeds arbitrary bytes through
// every wire-facing decoder: errors are fine, panics are not. The
// middleware decodes traffic from the network, so this is a security
// property, not just robustness.
func TestPropertyDecodeNeverPanicsOnGarbage(t *testing.T) {
	var reg Registry
	reg.MustRegister(testMsgSerializer{}, testMsg{})
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decoder panicked on %v: %v", b, r)
				ok = false
			}
		}()
		_, _ = reg.Decode(bytes.NewReader(b))
		_, _ = ReadBytes(bytes.NewReader(b))
		_, _ = ReadString(bytes.NewReader(b))
		_, _ = ReadUvarint(bytes.NewReader(b))
		_, _ = ReadVarint(bytes.NewReader(b))
		c := NewFlate(-1)
		_, _ = c.Decompress(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// fuzzMaxFrame keeps the fuzzer's frame limit small, so oversized lengths
// are common and legal payloads are still larger than its read buffer.
const fuzzMaxFrame = 64

// FuzzReadFrame feeds arbitrary bytes — a peer controls every one of them
// — through ReadFrame behind a minimal bufio.Reader, so payloads cross the
// buffer edge and the direct-read path. ReadFrame must not panic, must
// never return a payload over the limit, and the payloads it returns,
// framed again, must reproduce exactly the prefix it consumed. Where it
// stops must match the error: io.EOF at the very end, ErrFrameTooLarge at
// an oversized length, io.ErrUnexpectedEOF at a cut-short frame.
// The seed corpus is in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(b), 16)
		var reframed []byte
		var err error
		for {
			var p []byte
			if p, err = ReadFrame(r, fuzzMaxFrame); err != nil {
				break
			}
			if len(p) > fuzzMaxFrame {
				t.Fatalf("payload of %d B over the %d B limit", len(p), fuzzMaxFrame)
			}
			reframed = AppendFrame(reframed, p)
			bufpool.Put(p)
		}
		if !bytes.HasPrefix(b, reframed) {
			t.Fatalf("re-framed payloads are not a prefix of the input")
		}
		rest := b[len(reframed):]
		switch {
		case err == io.EOF:
			if len(rest) != 0 {
				t.Fatalf("io.EOF with %d bytes unread", len(rest))
			}
		case errors.Is(err, ErrFrameTooLarge):
			if len(rest) < FrameHeaderLen || binary.BigEndian.Uint32(rest) <= fuzzMaxFrame {
				t.Fatalf("ErrFrameTooLarge on a legal or missing header % x", rest[:min(len(rest), FrameHeaderLen)])
			}
		case err == io.ErrUnexpectedEOF:
			if len(rest) >= FrameHeaderLen && len(rest)-FrameHeaderLen >= int(binary.BigEndian.Uint32(rest)) {
				t.Fatalf("io.ErrUnexpectedEOF on a complete frame")
			}
		default:
			t.Fatalf("unexpected error %v", err)
		}
	})
}

// FuzzFlateRoundTrip checks the compression surface from both sides.
// Arbitrary input must come back byte-identical through the encoder and
// the inflater, and arbitrary bytes — a peer controls every one of them —
// fed to the inflater must not panic nor inflate past DefaultMaxFrame.
// Like FuzzDeflateStdlibDecodes it drives one deflater and one inflater
// into a fixed DefaultMaxFrame output rather than Flate's pools and
// bufpool, so coverage does not vary between a pool hit and a miss;
// TestFlateAllocationFree and TestFlateInteropWithStdlib cover the pooled
// path. The seed corpus is in testdata/fuzz/FuzzFlateRoundTrip.
func FuzzFlateRoundTrip(f *testing.F) {
	e := &deflater{seqs: make([]seq, 0, maxBlock/4+2)}
	d := new(inflater)
	buf := make([]byte, DefaultMaxFrame)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) <= DefaultMaxFrame {
			// A fresh dst each time: whether the encoder must grow it
			// would otherwise depend on earlier inputs.
			packed := e.deflate(nil, b)
			out, err := d.inflate(buf, packed)
			if err != nil {
				t.Fatalf("inflate of a %d B payload's stream: %v", len(b), err)
			}
			if !bytes.Equal(out, b) {
				t.Fatalf("round trip of %d B returned %d B, not the input", len(b), len(out))
			}
		}
		out, err := d.inflate(buf, b)
		if len(out) > DefaultMaxFrame {
			t.Fatalf("inflate returned %d B, over the %d B limit (err %v)", len(out), DefaultMaxFrame, err)
		}
	})
}

// stdlibInflate is the oracle the package's inflater is held to:
// compress/flate's reader behind a limit of one byte over the frame
// limit, and any output over the frame limit refused.
func stdlibInflate(b []byte) ([]byte, bool) {
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(b)), DefaultMaxFrame+1))
	return out, err == nil && len(out) <= DefaultMaxFrame
}

// FuzzInflateMatchesStdlib feeds arbitrary bytes to the inflater and to
// compress/flate: both must accept or both refuse, and what both accept
// must inflate to the same bytes. It drives one inflater into a fixed
// DefaultMaxFrame output, as FuzzFlateRoundTrip does. The seed corpus in
// testdata/fuzz/FuzzInflateMatchesStdlib holds streams of every block
// type and streams each of the decoder's checks refuses.
func FuzzInflateMatchesStdlib(f *testing.F) {
	d := new(inflater)
	buf := make([]byte, DefaultMaxFrame)
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantOK := stdlibInflate(b)
		got, err := d.inflate(buf, b)
		if (err == nil) != wantOK {
			t.Fatalf("inflate err %v, compress/flate accepts it: %v", err, wantOK)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("inflate gave %d B, compress/flate %d B, not the same bytes", len(got), len(want))
		}
	})
}

// FuzzDeflateStdlibDecodes checks the encoder against compress/flate's
// reader, which nodes built before this codec decode with: whatever the
// encoder writes for arbitrary input must inflate back to that input
// there. It drives one deflater rather than Flate's pool, whose misses
// and hits would make coverage vary from run to run and the fuzzer's
// minimizer spend its whole budget on each new input. The seed corpus is
// in testdata/fuzz/FuzzDeflateStdlibDecodes.
func FuzzDeflateStdlibDecodes(f *testing.F) {
	e := &deflater{seqs: make([]seq, 0, maxBlock/4+2)}
	f.Fuzz(func(t *testing.T, b []byte) {
		packed := e.deflate(nil, b)
		out, ok := stdlibInflate(packed)
		if !ok || !bytes.Equal(out, b) {
			t.Fatalf("compress/flate inflated the %d B stream of %d B to %d B (ok %v), not the input", len(packed), len(b), len(out), ok)
		}
	})
}
