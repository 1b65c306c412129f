package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/core"
)

// Message flags.
const (
	// flagEchoReq asks the receiving component to answer with an echo.
	flagEchoReq = 1 << iota
	// flagEcho marks the answer travelling back to the sending component.
	flagEcho
	// flagTraced marks a message the traced pass records spans for; every
	// layer boundary reads the decision from the message itself.
	flagTraced
)

// benchMsg is the benchmark's only message type. Senders reuse one struct
// per window slot; receivers draw them from msgPool and return them after
// verification, so the generator allocates nothing per message.
type benchMsg struct {
	hdr   core.BasicHeader
	flow  uint8
	flags uint8
	seq   uint64
	// stamp is when the message was triggered (or, on an open-loop flow,
	// when it was due), in ns on the process-wide monotonic clock; an echo
	// carries its request's stamp back.
	stamp   int64
	crc     uint32
	payload []byte

	pre [preambleLen]byte // decode scratch, so Deserialize allocates nothing
}

var _ core.Msg = (*benchMsg)(nil)

// Header implements core.Msg. A pointer into the message avoids boxing a
// header copy on every call.
func (m *benchMsg) Header() core.Header { return &m.hdr }

// Size lets the DATA interceptor weigh the message.
func (m *benchMsg) Size() int { return len(m.payload) }

// WithWireProtocol implements data.ProtocolReplaceable: the interceptor
// restamps DATA messages with TCP or UDT at release time.
func (m *benchMsg) WithWireProtocol(t core.Transport) core.Msg {
	c := *m
	c.hdr.Proto = t
	return &c
}

var msgPool = sync.Pool{New: func() interface{} { return new(benchMsg) }}

// releaseMsg returns a received message to the pool.
func releaseMsg(m *benchMsg) {
	m.payload = m.payload[:0]
	msgPool.Put(m)
}

// The wire form is a fixed big-endian preamble, so that the compressor
// decorator finds flow, flags and sequence number at fixed offsets of the
// bytes it is handed, followed by the middleware's own header encoding and
// the length-prefixed payload:
//
//	[flow:1][flags:1][seq:8][stamp:8][crc:4] [core basic header] [uvarint n][payload:n]
const (
	preambleLen = 22
	offFlow     = 0
	offFlags    = 1
	offSeq      = 2
	offStamp    = 10
	offCRC      = 18

	benchSerializerID = core.FirstApplicationSerializerID
)

type benchSerializer struct{}

var _ codec.Serializer = benchSerializer{}

func (benchSerializer) ID() codec.SerializerID { return benchSerializerID }

func (benchSerializer) Serialize(w io.Writer, v interface{}) error {
	m, ok := v.(*benchMsg)
	if !ok {
		return fmt.Errorf("benchmark: cannot encode %T", v)
	}
	var pre [preambleLen]byte
	pre[offFlow] = m.flow
	pre[offFlags] = m.flags
	binary.BigEndian.PutUint64(pre[offSeq:], m.seq)
	binary.BigEndian.PutUint64(pre[offStamp:], uint64(m.stamp))
	binary.BigEndian.PutUint32(pre[offCRC:], m.crc)
	// core encodes into a *bytes.Buffer; the concrete call keeps pre on the
	// stack, where a call through io.Writer would move it to the heap.
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Write(pre[:])
	} else if _, err := w.Write(append([]byte(nil), pre[:]...)); err != nil {
		return err
	}
	if err := core.WriteBasicHeader(w, m.hdr); err != nil {
		return err
	}
	return codec.WriteBytes(w, m.payload)
}

func (benchSerializer) Deserialize(r io.Reader) (interface{}, error) {
	m := msgPool.Get().(*benchMsg)
	if _, err := io.ReadFull(r, m.pre[:]); err != nil {
		return nil, err
	}
	m.flow = m.pre[offFlow]
	m.flags = m.pre[offFlags]
	m.seq = binary.BigEndian.Uint64(m.pre[offSeq:])
	m.stamp = int64(binary.BigEndian.Uint64(m.pre[offStamp:]))
	m.crc = binary.BigEndian.Uint32(m.pre[offCRC:])
	hdr, err := core.ReadBasicHeader(r)
	if err != nil {
		return nil, err
	}
	m.hdr = hdr
	n, err := codec.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > codec.DefaultMaxFrame {
		return nil, fmt.Errorf("benchmark: payload length %d out of range", n)
	}
	if uint64(cap(m.payload)) < n {
		m.payload = make([]byte, n)
	}
	m.payload = m.payload[:n]
	if _, err := io.ReadFull(r, m.payload); err != nil {
		return nil, err
	}
	return m, nil
}

// tracedInEncoded reads flow and sequence number from the encoded form core
// hands a compressor ([uvarint serializer id][preamble]...); ok is false
// unless it is a benchMsg flagged for tracing.
func tracedInEncoded(b []byte) (flow uint8, seq uint64, ok bool) {
	if len(b) < 1+preambleLen || b[0] != byte(benchSerializerID) || b[1+offFlags]&flagTraced == 0 {
		return 0, 0, false
	}
	b = b[1:]
	return b[offFlow], binary.BigEndian.Uint64(b[offSeq:]), true
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// payload is one pre-built message body with its checksum.
type payload struct {
	data []byte
	crc  uint32
}

// poolSize is the number of distinct payloads a flow cycles through.
const poolSize = 64

// echoBody is what every echo carries: the content does not matter, only
// that it is verified like any other delivery.
var echoBody = func() payload {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(i)
	}
	return payload{data: b, crc: checksum(b)}
}()

// buildPool generates a flow's payloads from the run's seed: random bytes,
// or Zipf-distributed dictionary words where the workload wants flate to
// have something to do.
func buildPool(rng *rand.Rand, size int, compressible bool) []payload {
	pool := make([]payload, poolSize)
	var zipf *rand.Zipf
	if compressible {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(dictionary)-1))
	}
	for i := range pool {
		b := make([]byte, size)
		if compressible {
			fillWords(b, zipf)
		} else {
			rng.Read(b)
		}
		pool[i] = payload{data: b, crc: checksum(b)}
	}
	return pool
}

// zipfS is the Zipf exponent of the word draw; with the dictionary below it
// puts compress/flate's default level at about 3:1 on 64 KiB chunks.
const zipfS = 1.2

func fillWords(b []byte, zipf *rand.Zipf) {
	for n := 0; n < len(b); {
		n += copy(b[n:], dictionary[zipf.Uint64()])
		if n < len(b) {
			b[n] = ' '
			n++
		}
	}
}

// dictionary is fixed (it does not depend on -seed): 2048 pronounceable
// pseudo-words of 3 to 11 letters, most frequent first.
var dictionary = func() []string {
	rng := rand.New(rand.NewSource(0x6b6f6d70)) // "komp"
	const consonants, vowels = "bcdfghjklmnprstvw", "aeiou"
	words := make([]string, 2048)
	for i := range words {
		syl := 1 + rng.Intn(4)
		w := make([]byte, 0, 12)
		for s := 0; s < syl; s++ {
			w = append(w, consonants[rng.Intn(len(consonants))], vowels[rng.Intn(len(vowels))])
			if rng.Intn(3) == 0 {
				w = append(w, consonants[rng.Intn(len(consonants))])
			}
		}
		words[i] = string(w)
	}
	return words
}()
