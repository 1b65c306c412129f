package codec

import (
	"fmt"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// Compressor transforms payload bytes. The middleware's channel pipeline
// applies one to every serialised message, mirroring the Snappy handler in
// the paper's Netty pipeline. DEFLATE stands in for Snappy here (no
// dependencies), as Flate: the package's own codec, with Snappy's matcher
// and a whole-buffer decoder, so the layer costs a fraction of what the
// socket does, as Snappy's does, instead of limiting every transfer it
// touches. Core skips the compressor for messages under 512 bytes and for
// payloads that sample as incompressible.
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

// Flate is a DEFLATE Compressor: the package's own whole-buffer codec,
// writing standard RFC 1951 streams that any inflater reads and reading
// any stream compress/flate reads. Both directions run allocation-free at
// steady state: each pools its working state, compression appends to the
// caller's buffer, and decompression writes straight into a bufpool
// buffer.
type Flate struct {
	enc sync.Pool // *deflater
	dec sync.Pool // *inflater
}

var _ Compressor = (*Flate)(nil)
var _ AppendCompressor = (*Flate)(nil)

// NewFlate creates a DEFLATE compressor. There is one encoder, a
// Snappy-class matcher at about compress/flate's BestSpeed ratio, so
// level selects nothing; it stays for callers written against
// compress/flate's levels.
func NewFlate(level int) *Flate { return new(Flate) }

// Name implements Compressor.
func (f *Flate) Name() string { return "flate" }

// Compress implements Compressor.
func (f *Flate) Compress(src []byte) ([]byte, error) {
	return f.AppendCompress(make([]byte, 0, len(src)/2+64), src)
}

// AppendCompress implements AppendCompressor. It cannot fail.
func (f *Flate) AppendCompress(dst, src []byte) ([]byte, error) {
	e, _ := f.enc.Get().(*deflater)
	if e == nil {
		e = &deflater{seqs: make([]seq, 0, maxBlock/4+2)}
	}
	dst = e.deflate(dst, src)
	f.enc.Put(e)
	return dst, nil
}

// Decompress implements Compressor. The returned slice is drawn from
// bufpool; the caller owns it and may recycle it with bufpool.Put. Output
// past DefaultMaxFrame fails with ErrValueOutOfBounds, having buffered no
// more than that, so a small frame cannot make its receiver inflate more.
func (f *Flate) Decompress(src []byte) ([]byte, error) {
	d, _ := f.dec.Get().(*inflater)
	if d == nil {
		d = new(inflater)
	}
	out := bufpool.Get(min(4*len(src)+64, DefaultMaxFrame))
	out, err := d.inflate(out[:min(cap(out), DefaultMaxFrame)], src)
	f.dec.Put(d)
	if err != nil {
		bufpool.Put(out)
		return nil, fmt.Errorf("codec: flate decompress: %w", err)
	}
	return out, nil
}
