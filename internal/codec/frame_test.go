package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// TestReadFrameTruncatedHeader pins the stream-end error mapping: a clean
// end between frames is io.EOF, any truncation — mid-header or mid-payload
// — is io.ErrUnexpectedEOF.
func TestReadFrameTruncatedHeader(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	frame := full.Bytes()
	for cut := 0; cut < len(frame); cut++ {
		_, err := ReadFrame(bytes.NewReader(frame[:cut]), 0)
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF // clean end before any header byte
		}
		if err != want {
			t.Errorf("cut at %d bytes: err = %v, want %v", cut, err, want)
		}
	}
}

// TestReadFramePooledOwnership verifies the documented contract: the
// returned buffer came from bufpool and a full read/Put cycle leaks
// nothing, including on truncated-payload errors (ReadFrame reclaims the
// buffer itself then).
func TestReadFramePooledOwnership(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	bufpool.ResetStats()

	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, bytes.Repeat([]byte{byte(i)}, 1024), 0); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(payload)
	}
	// Truncated payload: ReadFrame must not leak its pooled buffer.
	buf.Reset()
	if err := WriteFrame(&buf, make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadFrame(bytes.NewReader(trunc), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: err = %v", err)
	}
	if n := bufpool.Outstanding(); n != 0 {
		t.Fatalf("leaked %d pooled buffers through ReadFrame", n)
	}
}

func TestWriteFrameVectored(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("vectored payload")
	n, err := WriteFrameVectored(&buf, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(payload) {
		t.Fatalf("n = %d, want %d", n, len(payload))
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q", got)
	}
	bufpool.Put(got)
	if _, err := WriteFrameVectored(&buf, make([]byte, 100), 10); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestAppendFrame(t *testing.T) {
	var packed []byte
	payloads := [][]byte{[]byte("one"), {}, []byte("three")}
	for _, p := range payloads {
		packed = AppendFrame(packed, p)
	}
	r := bytes.NewReader(packed)
	for i, want := range payloads {
		got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
		bufpool.Put(got)
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("trailing data: %v", err)
	}
}

// bufferedSizes straddles every edge of the read path: empty and tiny
// frames, a typical small message, payloads ending just inside, at and
// just past the read buffer (the direct-read threshold), a bulk chunk and
// the largest legal frame.
var bufferedSizes = []int{0, 1, 1 << 10, readBufSize - 4, readBufSize, readBufSize + 1, 64 << 10, DefaultMaxFrame}

// bufferedStream frames one payload per size, each filled with a pattern
// unique to its position.
func bufferedStream() (stream []byte, payloads [][]byte) {
	for i, n := range bufferedSizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		payloads = append(payloads, p)
		stream = AppendFrame(stream, p)
	}
	return stream, payloads
}

// readerShapes are the underlying readers a frame reader must cope with:
// one byte per Read, half of each request, and the whole stream at once.
var readerShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"one byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"whole", func(r io.Reader) io.Reader { return r }},
}

// TestReadFrameBuffered reads a stream of frames at every size edge
// through NewFrameReader over each reader shape: identical payloads, then
// io.EOF at the clean end, and no pooled buffer left outstanding.
func TestReadFrameBuffered(t *testing.T) {
	stream, payloads := bufferedStream()
	for _, shape := range readerShapes {
		t.Run(shape.name, func(t *testing.T) {
			bufpool.SetDebug(true)
			defer bufpool.SetDebug(false)
			bufpool.ResetStats()
			r := NewFrameReader(shape.wrap(bytes.NewReader(stream)))
			for i, want := range payloads {
				got, err := ReadFrame(r, 0)
				if err != nil {
					t.Fatalf("frame %d (%d B): %v", i, len(want), err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d (%d B): payload differs", i, len(want))
				}
				bufpool.Put(got)
			}
			if _, err := ReadFrame(r, 0); err != io.EOF {
				t.Fatalf("clean end: err = %v, want io.EOF", err)
			}
			if n := bufpool.Outstanding(); n != 0 {
				t.Fatalf("%d pooled buffers outstanding", n)
			}
		})
	}
}

// TestReadFrameBufferedTruncated cuts the stream inside each frame's
// header, at its first payload byte, at the read buffer's edge and one
// byte short of its end. The frames before the cut read intact, the cut
// one fails with io.ErrUnexpectedEOF, and its pooled buffer is reclaimed.
func TestReadFrameBufferedTruncated(t *testing.T) {
	stream, payloads := bufferedStream()
	type cut struct{ at, frame int }
	var cuts []cut
	start := 0
	for i, p := range payloads {
		body := start + FrameHeaderLen
		at := []int{start + 1, start + 2, start + 3}
		if len(p) > 0 {
			at = append(at, body, body+len(p)-1)
		}
		if len(p) > readBufSize {
			at = append(at, body+readBufSize)
		}
		for _, a := range at {
			cuts = append(cuts, cut{a, i})
		}
		start = body + len(p)
	}
	for _, shape := range readerShapes {
		t.Run(shape.name, func(t *testing.T) {
			bufpool.SetDebug(true)
			defer bufpool.SetDebug(false)
			bufpool.ResetStats()
			for _, c := range cuts {
				r := NewFrameReader(shape.wrap(bytes.NewReader(stream[:c.at])))
				for i := 0; i < c.frame; i++ {
					got, err := ReadFrame(r, 0)
					if err != nil || !bytes.Equal(got, payloads[i]) {
						t.Fatalf("cut at %d: frame %d before the cut: err = %v or payload differs", c.at, i, err)
					}
					bufpool.Put(got)
				}
				if _, err := ReadFrame(r, 0); err != io.ErrUnexpectedEOF {
					t.Fatalf("cut at %d, frame %d: err = %v, want io.ErrUnexpectedEOF", c.at, c.frame, err)
				}
			}
			if n := bufpool.Outstanding(); n != 0 {
				t.Fatalf("%d pooled buffers outstanding after truncated reads", n)
			}
		})
	}
}

// headerOnly serves one frame header, then fails the test if ReadFrame
// asks for anything past it.
type headerOnly struct {
	t   *testing.T
	hdr []byte
}

func (h *headerOnly) Read(p []byte) (int, error) {
	if len(h.hdr) == 0 {
		h.t.Fatal("ReadFrame read past an oversized header")
	}
	n := copy(p, h.hdr)
	h.hdr = h.hdr[n:]
	return n, nil
}

// TestReadFrameBufferedTooLarge: an oversized length fails with
// ErrFrameTooLarge before a single payload byte is read or a pooled
// buffer is drawn.
func TestReadFrameBufferedTooLarge(t *testing.T) {
	for _, shape := range readerShapes {
		t.Run(shape.name, func(t *testing.T) {
			bufpool.SetDebug(true)
			defer bufpool.SetDebug(false)
			bufpool.ResetStats()
			hdr := []byte{0, 0x10, 0, 1} // DefaultMaxFrame + 1
			r := NewFrameReader(shape.wrap(&headerOnly{t: t, hdr: hdr}))
			if _, err := ReadFrame(r, 0); !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("err = %v, want ErrFrameTooLarge", err)
			}
			if n := bufpool.Outstanding(); n != 0 {
				t.Fatalf("%d pooled buffers drawn for a rejected frame", n)
			}
		})
	}
}

// countingReader counts the Read calls that reach it.
type countingReader struct {
	r     io.Reader
	calls int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.calls++
	return c.r.Read(p)
}

// TestReadFrameBufferedReadCount reports how many Read calls — read(2)
// calls on a socket — 1 000 frames of 1 KiB cost through NewFrameReader,
// against two per frame on the bare reader.
func TestReadFrameBufferedReadCount(t *testing.T) {
	const frames, size, limit = 1000, 1 << 10, 40
	var stream []byte
	payload := make([]byte, size)
	for i := 0; i < frames; i++ {
		stream = AppendFrame(stream, payload)
	}
	count := func(wrap func(io.Reader) io.Reader) int {
		src := &countingReader{r: bytes.NewReader(stream)}
		r := wrap(src)
		for {
			p, err := ReadFrame(r, 0)
			if err == io.EOF {
				return src.calls
			}
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Put(p)
		}
	}
	// The bare count goes through a wrapper that hides *bytes.Reader, as a
	// net.Conn would be.
	bare := count(func(r io.Reader) io.Reader { return struct{ io.Reader }{r} })
	buffered := count(func(r io.Reader) io.Reader { return NewFrameReader(r) })
	t.Logf("read calls for %d × %d B frames: %d bare, %d buffered", frames, size, bare, buffered)
	if buffered > limit {
		t.Fatalf("buffered reader made %d read calls, want ≤ %d", buffered, limit)
	}
}
