// Package codec is the serialisation substrate of the middleware: a
// registry of message serialisers keyed by a compact wire identifier, a
// small binary primitive layer, length-prefixed framing for stream
// transports, and a pluggable compression stage.
//
// It mirrors the role Netty's codec pipeline plays for the JVM
// implementation (§V-A of the paper): every network message is encoded as
//
//	[uvarint serialiser id][serialiser-specific payload]
//
// optionally wrapped by a compressor, and on stream transports wrapped in a
// 32-bit big-endian length frame.
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
)

// SerializerID identifies a serialiser on the wire.
type SerializerID uint16

// Serializer converts values of one or more registered Go types to and
// from bytes. Implementations must be safe for concurrent use.
type Serializer interface {
	// ID returns the serialiser's wire identifier.
	ID() SerializerID
	// Serialize appends the wire form of v to w.
	Serialize(w io.Writer, v interface{}) error
	// Deserialize reconstructs a value from r.
	Deserialize(r io.Reader) (interface{}, error)
}

// Registry maps wire identifiers and Go types to serialisers. The zero
// value is ready to use. Registration is expected at setup time; lookups
// are safe for concurrent use with registrations.
type Registry struct {
	mu      sync.RWMutex
	byID    map[SerializerID]Serializer
	byType  map[reflect.Type]Serializer
	nameMap map[string]SerializerID
}

// Errors returned by the registry and the encode/decode helpers.
var (
	ErrDuplicateID      = errors.New("codec: serializer id already registered")
	ErrDuplicateType    = errors.New("codec: type already bound to a serializer")
	ErrUnknownType      = errors.New("codec: no serializer registered for type")
	ErrUnknownID        = errors.New("codec: no serializer registered for id")
	ErrFrameTooLarge    = errors.New("codec: frame exceeds maximum size")
	ErrInvalidFrame     = errors.New("codec: invalid frame")
	ErrValueOutOfBounds = errors.New("codec: length prefix out of bounds")
)

// Register binds a serialiser and the Go types it handles. Passing a type
// twice or reusing an ID is a setup bug and returns an error.
func (r *Registry) Register(s Serializer, prototypes ...interface{}) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID == nil {
		r.byID = make(map[SerializerID]Serializer)
		r.byType = make(map[reflect.Type]Serializer)
	}
	if existing, ok := r.byID[s.ID()]; ok && existing != s {
		return fmt.Errorf("%w: %d", ErrDuplicateID, s.ID())
	}
	r.byID[s.ID()] = s
	for _, p := range prototypes {
		t := reflect.TypeOf(p)
		if t == nil {
			return errors.New("codec: cannot register untyped nil prototype")
		}
		if _, ok := r.byType[t]; ok {
			return fmt.Errorf("%w: %v", ErrDuplicateType, t)
		}
		r.byType[t] = s
	}
	return nil
}

// MustRegister is Register that panics on error, for wiring code.
func (r *Registry) MustRegister(s Serializer, prototypes ...interface{}) {
	if err := r.Register(s, prototypes...); err != nil {
		panic(err)
	}
}

// ByID looks a serialiser up by wire identifier.
func (r *Registry) ByID(id SerializerID) (Serializer, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byID[id]
	return s, ok
}

// ByValue looks a serialiser up for a concrete value.
func (r *Registry) ByValue(v interface{}) (Serializer, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byType[reflect.TypeOf(v)]
	return s, ok
}

// Encode writes [uvarint id][payload] for v using its registered
// serialiser.
func (r *Registry) Encode(w io.Writer, v interface{}) error {
	s, ok := r.ByValue(v)
	if !ok {
		return fmt.Errorf("%w: %T", ErrUnknownType, v)
	}
	if err := WriteUvarint(w, uint64(s.ID())); err != nil {
		return err
	}
	return s.Serialize(w, v)
}

// Decode reads a value previously written by Encode.
func (r *Registry) Decode(rd io.Reader) (interface{}, error) {
	id, err := ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	if id > uint64(^SerializerID(0)) {
		return nil, fmt.Errorf("%w: serializer id %d", ErrValueOutOfBounds, id)
	}
	s, ok := r.ByID(SerializerID(id))
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	return s.Deserialize(rd)
}

// --- binary primitives ------------------------------------------------------
//
// The primitives below stage their wire bytes in small stack arrays. Those
// arrays must never be passed across an io.Writer/io.Reader interface call:
// escape analysis is not flow-sensitive, so a single interface use would
// heap-allocate the array on *every* call, including the hot encode/decode
// path that only ever sees *bytes.Buffer and *bytes.Reader. writeSmall and
// readSmall keep the concrete cases allocation-free and confine the
// unavoidable heap copy to the generic io.Writer/io.Reader branch.

// writeSmall writes a short primitive encoding. p is only ever handed to
// concrete methods that do not retain it, so the caller's stack buffer does
// not escape; the generic branch copies into a fresh array whose heap
// allocation is only reached for non-buffer writers.
func writeSmall(w io.Writer, p []byte) error {
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Write(p)
		return nil
	}
	var a [binary.MaxVarintLen64]byte
	n := copy(a[:], p)
	_, err := w.Write(a[:n])
	return err
}

// readSmall fills p exactly, with io.ReadFull's error convention: io.EOF on
// a clean end before any byte, io.ErrUnexpectedEOF on a partial fill. The
// concrete cases read directly so p never escapes.
func readSmall(r io.Reader, p []byte) error {
	switch cr := r.(type) {
	case *bytes.Reader:
		n, _ := cr.Read(p)
		return fullReadErr(n, len(p))
	case *bytes.Buffer:
		n, _ := cr.Read(p)
		return fullReadErr(n, len(p))
	case *bufio.Reader:
		// Peek fills the buffer until len(p) bytes are there or the
		// stream fails; bufio.Reader.Read would hand p to the underlying
		// reader and make it escape.
		b, err := cr.Peek(len(p))
		n := copy(p, b)
		cr.Discard(n)
		switch {
		case n == len(p):
			return nil
		case err != io.EOF:
			return err
		case n == 0:
			return io.EOF
		default:
			return io.ErrUnexpectedEOF
		}
	}
	a, err := readSmallSlow(r, len(p))
	copy(p, a[:])
	return err
}

// fullReadErr maps a single concrete Read's count to io.ReadFull semantics.
// Valid because bytes.Reader and bytes.Buffer return min(len(p), remaining)
// in one call: a short count can only mean the stream ended.
func fullReadErr(n, want int) error {
	switch {
	case n == want:
		return nil
	case n == 0:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

// readSmallSlow services readSmall's generic branch. Its array escapes
// through the interface call, but the allocation happens only when this
// function — not the fast path — actually runs.
func readSmallSlow(r io.Reader, n int) ([8]byte, error) {
	var a [8]byte
	_, err := io.ReadFull(r, a[:n])
	return a, err
}

// WriteUvarint writes v in unsigned varint encoding.
func WriteUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return writeSmall(w, buf[:n])
}

// ReadUvarint reads an unsigned varint.
func ReadUvarint(r io.Reader) (uint64, error) {
	br, ok := r.(io.ByteReader)
	if ok {
		return binary.ReadUvarint(br)
	}
	return binary.ReadUvarint(singleByteReader{r})
}

type singleByteReader struct{ r io.Reader }

func (s singleByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(s.r, b[:])
	return b[0], err
}

// WriteVarint writes v in signed (zig-zag) varint encoding.
func WriteVarint(w io.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	return writeSmall(w, buf[:n])
}

// ReadVarint reads a signed varint.
func ReadVarint(r io.Reader) (int64, error) {
	u, err := ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, nil
}

// WriteUint16 writes a big-endian uint16.
func WriteUint16(w io.Writer, v uint16) error {
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], v)
	return writeSmall(w, buf[:])
}

// ReadUint16 reads a big-endian uint16.
func ReadUint16(r io.Reader) (uint16, error) {
	var buf [2]byte
	if err := readSmall(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(buf[:]), nil
}

// WriteUint32 writes a big-endian uint32.
func WriteUint32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	return writeSmall(w, buf[:])
}

// ReadUint32 reads a big-endian uint32.
func ReadUint32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if err := readSmall(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(buf[:]), nil
}

// WriteUint64 writes a big-endian uint64.
func WriteUint64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return writeSmall(w, buf[:])
}

// ReadUint64 reads a big-endian uint64.
func ReadUint64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if err := readSmall(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}

// WriteBool writes a single 0/1 byte.
func WriteBool(w io.Writer, v bool) error {
	b := [1]byte{0}
	if v {
		b[0] = 1
	}
	return writeSmall(w, b[:])
}

// ReadBool reads a single 0/1 byte; any nonzero value is true.
func ReadBool(r io.Reader) (bool, error) {
	var b [1]byte
	if err := readSmall(r, b[:]); err != nil {
		return false, err
	}
	return b[0] != 0, nil
}

// maxChunk bounds length prefixes read from the wire, protecting against
// hostile or corrupt frames.
const maxChunk = 1 << 30

// WriteBytes writes a uvarint length prefix followed by b.
func WriteBytes(w io.Writer, b []byte) error {
	if err := WriteUvarint(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadBytes reads a length-prefixed byte slice.
func ReadBytes(r io.Reader) ([]byte, error) {
	n, err := ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxChunk {
		return nil, fmt.Errorf("%w: %d bytes", ErrValueOutOfBounds, n)
	}
	if br, ok := r.(*bytes.Reader); ok && n > uint64(br.Len()) {
		// A prefix claiming more than the input holds fails as
		// io.ReadFull would, without allocating the claimed length.
		rest := br.Len()
		br.Seek(0, io.SeekEnd)
		if rest == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := make([]byte, int(n))
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteString writes a length-prefixed UTF-8 string.
func WriteString(w io.Writer, s string) error {
	if err := WriteUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// ReadString reads a length-prefixed UTF-8 string.
func ReadString(r io.Reader) (string, error) {
	b, err := ReadBytes(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
