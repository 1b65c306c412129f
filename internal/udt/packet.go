package udt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Packet types. Data packets start with a zero byte; control packets set
// the high bit and carry the control type in the low bits.
const (
	pktData byte = 0x00

	ctlFlag      byte = 0x80
	ctlHandshake byte = ctlFlag | 0x01
	ctlHsAck     byte = ctlFlag | 0x02
	ctlAck       byte = ctlFlag | 0x03
	ctlNak       byte = ctlFlag | 0x04
	ctlShutdown  byte = ctlFlag | 0x05
	ctlKeepalive byte = ctlFlag | 0x06
)

// mssPayload is the data payload carried per packet: conservative for a
// 1500-byte MTU after IP/UDP/UDT headers.
const mssPayload = 1400

// dataHeaderLen is [type:1][seq:4].
const dataHeaderLen = 5

// errMalformed reports an undecodable packet; such packets are dropped.
var errMalformed = errors.New("udt: malformed packet")

// nakRange is an inclusive range of lost sequence numbers.
type nakRange struct {
	from, to uint32
}

// seqLess compares sequence numbers with wraparound.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// seqLeq is seqLess or equal.
func seqLeq(a, b uint32) bool { return int32(a-b) <= 0 }

// decodeData parses a data packet.
func decodeData(b []byte) (seq uint32, payload []byte, err error) {
	if len(b) < dataHeaderLen {
		return 0, nil, errMalformed
	}
	return binary.BigEndian.Uint32(b[1:5]), b[5:], nil
}

// encodeHandshake renders a handshake or handshake-ack packet carrying the
// sender's initial sequence number and its flow-window size in packets.
func encodeHandshake(typ byte, initialSeq uint32, window uint32) []byte {
	b := make([]byte, 0, 9)
	b = append(b, typ)
	b = binary.BigEndian.AppendUint32(b, initialSeq)
	b = binary.BigEndian.AppendUint32(b, window)
	return b
}

func decodeHandshake(b []byte) (initialSeq, window uint32, err error) {
	if len(b) < 9 {
		return 0, 0, errMalformed
	}
	return binary.BigEndian.Uint32(b[1:5]), binary.BigEndian.Uint32(b[5:9]), nil
}

// encodeAck renders a cumulative ACK: everything before ackSeq has been
// received; window is the receiver's available buffer in packets.
func encodeAck(ackSeq uint32, window uint32) []byte {
	b := make([]byte, 0, 9)
	b = append(b, ctlAck)
	b = binary.BigEndian.AppendUint32(b, ackSeq)
	b = binary.BigEndian.AppendUint32(b, window)
	return b
}

func decodeAck(b []byte) (ackSeq, window uint32, err error) {
	if len(b) < 9 {
		return 0, 0, errMalformed
	}
	return binary.BigEndian.Uint32(b[1:5]), binary.BigEndian.Uint32(b[5:9]), nil
}

// encodeNak renders a NAK carrying loss ranges (inclusive).
func encodeNak(ranges []nakRange) []byte {
	b := make([]byte, 0, 3+8*len(ranges))
	b = append(b, ctlNak)
	b = binary.BigEndian.AppendUint16(b, uint16(len(ranges)))
	for _, r := range ranges {
		b = binary.BigEndian.AppendUint32(b, r.from)
		b = binary.BigEndian.AppendUint32(b, r.to)
	}
	return b
}

func decodeNak(b []byte) ([]nakRange, error) {
	if len(b) < 3 {
		return nil, errMalformed
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) < 3+8*n {
		return nil, errMalformed
	}
	ranges := make([]nakRange, n)
	for i := 0; i < n; i++ {
		off := 3 + 8*i
		ranges[i] = nakRange{
			from: binary.BigEndian.Uint32(b[off : off+4]),
			to:   binary.BigEndian.Uint32(b[off+4 : off+8]),
		}
		if seqLess(ranges[i].to, ranges[i].from) {
			return nil, fmt.Errorf("%w: inverted NAK range", errMalformed)
		}
	}
	return ranges, nil
}
