package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// Compressor transforms payload bytes. The middleware's channel pipeline
// applies one to every serialised message, mirroring the Snappy handler in
// the paper's Netty pipeline. DEFLATE stands in for Snappy here (stdlib
// only), by default at flate.BestSpeed, whose LZ77 matcher is derived from
// Snappy's: the layer then costs a fraction of what the socket does, as
// Snappy's does, instead of limiting every transfer it touches. Core skips
// the compressor for payloads that sample as incompressible.
type Compressor interface {
	// Name identifies the compressor for diagnostics.
	Name() string
	// Compress returns the compressed form of src.
	Compress(src []byte) ([]byte, error)
	// Decompress reverses Compress. The result may alias src (Noop does
	// this); callers recycling buffers must account for aliasing.
	Decompress(src []byte) ([]byte, error)
}

// AppendCompressor is an optional Compressor extension for the
// zero-allocation hot path: the compressed bytes are appended directly to
// dst, letting callers place them after a header in a pooled buffer
// without a second copy.
type AppendCompressor interface {
	// AppendCompress appends the compressed form of src to dst and
	// returns the extended slice (reallocating like append when dst lacks
	// capacity).
	AppendCompress(dst, src []byte) ([]byte, error)
}

// Noop is a pass-through Compressor. The zero value is ready to use.
type Noop struct{}

var _ Compressor = Noop{}

// Name implements Compressor.
func (Noop) Name() string { return "noop" }

// Compress implements Compressor.
func (Noop) Compress(src []byte) ([]byte, error) { return src, nil }

// Decompress implements Compressor.
func (Noop) Decompress(src []byte) ([]byte, error) { return src, nil }

// Flate is a DEFLATE Compressor. Both directions run allocation-free at
// steady state: compression pools its flate.Writers (heavyweight: ~64 kB
// of window state each) behind a reusable slice sink, and decompression
// pools its flate.Readers symmetrically via flate.Resetter.
type Flate struct {
	level int
	enc   sync.Pool // *flateEncoder
	dec   sync.Pool // *flateDecoder
}

var _ Compressor = (*Flate)(nil)
var _ AppendCompressor = (*Flate)(nil)

// flateEncoder pairs a pooled flate.Writer with the slice sink it writes
// to, so a Compress call recycles both as one unit.
type flateEncoder struct {
	sink sliceWriter
	fw   *flate.Writer
}

// sliceWriter appends to a caller-owned slice; the hot path's alternative
// to a bytes.Buffer whose backing array could not be handed back.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// flateDecoder pairs a pooled flate reader with the bytes.Reader it
// decompresses from.
type flateDecoder struct {
	src bytes.Reader
	fr  io.ReadCloser // always implements flate.Resetter
}

// inflateScratch recycles the buffers Decompress inflates into: one per
// call in flight, shared by every Flate. Each has room for one byte over
// the frame limit plus ReadFrom's minimum read, so inflating never grows
// it.
var inflateScratch = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, DefaultMaxFrame+1+bytes.MinRead)) }}

// NewFlate creates a DEFLATE compressor. Levels 0–9 and flate.HuffmanOnly
// follow compress/flate. flate.DefaultCompression and every out-of-range
// value mean flate.BestSpeed, not compress/flate's level 6: BestSpeed is
// the Snappy-class matcher the paper's pipeline runs, 5–7× faster than
// level 6 on word text for a ratio of ≈ 2.9:1 instead of ≈ 3.6:1, and
// level 6 compresses slower than the links it feeds. The stream is
// standard DEFLATE whatever the level, so decoding does not depend on it.
func NewFlate(level int) *Flate {
	if level == flate.DefaultCompression || level < flate.HuffmanOnly || level > flate.BestCompression {
		level = flate.BestSpeed
	}
	return &Flate{level: level}
}

// Name implements Compressor.
func (f *Flate) Name() string { return "flate" }

// Compress implements Compressor.
func (f *Flate) Compress(src []byte) ([]byte, error) {
	dst := make([]byte, 0, len(src)/2+64)
	return f.AppendCompress(dst, src)
}

// AppendCompress implements AppendCompressor.
func (f *Flate) AppendCompress(dst, src []byte) ([]byte, error) {
	e, _ := f.enc.Get().(*flateEncoder)
	if e == nil {
		e = &flateEncoder{}
		e.fw, _ = flate.NewWriter(&e.sink, f.level)
	}
	e.sink.b = dst
	e.fw.Reset(&e.sink)
	if _, err := e.fw.Write(src); err != nil {
		return nil, fmt.Errorf("codec: flate compress: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		return nil, fmt.Errorf("codec: flate close: %w", err)
	}
	out := e.sink.b
	e.sink.b = nil
	f.enc.Put(e)
	return out, nil
}

// Decompress implements Compressor. The returned slice is drawn from
// bufpool; the caller owns it and may recycle it with bufpool.Put. Output
// past DefaultMaxFrame fails with ErrValueOutOfBounds, having buffered no
// more than that, so a small frame cannot make its receiver inflate more.
func (f *Flate) Decompress(src []byte) ([]byte, error) {
	d, _ := f.dec.Get().(*flateDecoder)
	if d == nil {
		d = &flateDecoder{fr: flate.NewReader(nil)}
	}
	d.src.Reset(src)
	if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, fmt.Errorf("codec: flate reset: %w", err)
	}
	scratch := inflateScratch.Get().(*bytes.Buffer)
	defer inflateScratch.Put(scratch)
	scratch.Reset()
	_, err := scratch.ReadFrom(io.LimitReader(d.fr, DefaultMaxFrame+1))
	d.src.Reset(nil)
	f.dec.Put(d)
	if err != nil {
		return nil, fmt.Errorf("codec: flate decompress: %w", err)
	}
	if scratch.Len() > DefaultMaxFrame {
		return nil, fmt.Errorf("%w: decompressed payload over %d bytes", ErrValueOutOfBounds, DefaultMaxFrame)
	}
	out := bufpool.Get(scratch.Len())
	copy(out, scratch.Bytes())
	return out, nil
}
