package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// DefaultMaxFrame is the upper bound on a single frame's payload, and on a
// serialised message either side of compression: the transport frames and
// reads against it, core refuses to encode a larger message, and
// Flate.Decompress refuses to inflate past it. The paper's implementation
// used 65 kB Netty serialisation buffers; we allow some headroom for
// headers and compression expansion.
const DefaultMaxFrame = 1 << 20

// FrameHeaderLen is the size of the length prefix on stream transports,
// exported so write-coalescing callers can size batch buffers exactly.
const FrameHeaderLen = 4

// frameHeaderLen is kept as the internal alias.
const frameHeaderLen = FrameHeaderLen

// AppendFrame appends one length-prefixed frame (header + payload) to dst
// and returns the extended slice. It performs no size validation — callers
// batching pre-validated messages (transport.Send checks against DefaultMaxFrame)
// use it to pack several frames into one pooled buffer for a single
// vectored or coalesced write.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteFrame writes payload prefixed by its 32-bit big-endian length.
func WriteFrame(w io.Writer, payload []byte, maxFrame int) error {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), maxFrame)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteFrameVectored writes one frame as a single vectored write: header
// and payload go out in one writev(2) when w supports it (net.Conn
// implementations do), avoiding both the second syscall and copying the
// payload into a staging buffer. On writers without vectored support,
// net.Buffers falls back to sequential writes, making this equivalent to
// WriteFrame. It reports the number of bytes consumed from payload (the
// header does not count), which on a short write tells the caller how much
// of the payload reached the socket.
func WriteFrameVectored(w io.Writer, payload []byte, maxFrame int) (int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), maxFrame)
	}
	// The header and the net.Buffers escape through WriteTo's interface
	// calls, so they come from a pool rather than the stack.
	v := vecPool.Get().(*vecFrame)
	binary.BigEndian.PutUint32(v.hdr[:], uint32(len(payload)))
	v.vec = [2][]byte{v.hdr[:], payload}
	v.bufs = v.vec[:]
	n, err := v.bufs.WriteTo(w)
	v.vec = [2][]byte{}
	vecPool.Put(v)
	n -= frameHeaderLen
	if n < 0 {
		n = 0
	}
	return int(n), err
}

// vecFrame is WriteFrameVectored's scratch: the frame header and the
// two-element vector WriteTo consumes.
type vecFrame struct {
	hdr  [frameHeaderLen]byte
	vec  [2][]byte
	bufs net.Buffers
}

var vecPool = sync.Pool{New: func() any { return new(vecFrame) }}

// readBufSize is the read buffer NewFrameReader puts in front of a stream.
// One read(2) fills it with as many frames as the socket holds, instead of
// two reads per frame on the bare connection.
const readBufSize = 32 << 10

// NewFrameReader wraps an inbound stream in the read buffer ReadFrame cuts
// frames out of. Headers and small payloads are copied out of the buffer;
// once the rest of a payload is at least readBufSize, bufio reads it
// straight into the payload's pooled buffer, so a large frame passes
// through the read buffer for at most one buffer's worth of copying.
//
// Worth it only where each Read is a syscall: a reader that is itself a
// userspace copy (udt.Conn) gains nothing and pays an extra copy.
func NewFrameReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, readBufSize)
}

// ReadFrame reads one length-prefixed frame into a buffer drawn from
// bufpool. io.EOF is returned unchanged when the stream ends cleanly
// between frames; a stream that ends mid-header or mid-payload yields
// io.ErrUnexpectedEOF. An oversized length fails with ErrFrameTooLarge
// before any payload byte is read.
//
// Ownership: the returned buffer belongs to the caller, who should return
// it with bufpool.Put once the payload has been consumed (dropping it is
// safe but costs an allocation on a later read).
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if err := readSmall(r, hdr[:]); err != nil {
		// readSmall already distinguishes the two stream-end cases:
		// io.EOF for a clean end before any header byte, and
		// io.ErrUnexpectedEOF for a truncated header. Pass both through.
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	payload := bufpool.Get(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		bufpool.Put(payload)
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
