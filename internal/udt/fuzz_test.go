package udt

import (
	"bytes"
	"fmt"
	"net"
	"testing"
)

// fuzzBase is the first sequence number of both directions in
// FuzzHandlePacket: the in-flight window crosses the uint32 wrap.
const fuzzBase = ^uint32(0) - 15

// splitDatagrams cuts a fuzz input into datagrams, each prefixed by its
// one-byte length; a short tail becomes the last datagram.
func splitDatagrams(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		n := min(int(b[0]), len(b)-1)
		out = append(out, b[1:1+n])
		b = b[1+n:]
	}
	return out
}

// FuzzHandlePacket feeds a sequence of arbitrary datagrams into an
// established connection with data in flight, refilling its send window
// after each. Hostile or corrupt traffic must be dropped, never crash the
// transport, and never break the invariants the ring windows rely on:
// sndFirstUnack never passes sndNextSeq, every in-flight packet is stored,
// the congestion window stays within the flow window, and the receive
// frontier never falls behind the in-order one.
// The seed corpus is in testdata/fuzz/FuzzHandlePacket.
func FuzzHandlePacket(f *testing.F) {
	// One idle socket serves every input; the control packets the
	// connection emits land in its receive buffer and are never read.
	// Dropping every data packet before the socket keeps the harness free
	// of per-packet syscalls; the windows do not care.
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { sock.Close() })
	setLossHook(f, func() bool { return true })
	cfg := Config{MaxFlowWindow: 64, RcvBuffer: 64}
	f.Fuzz(func(t *testing.T, b []byte) {
		c := newConn(nil, sock, sock.LocalAddr().(*net.UDPAddr).AddrPort(), cfg)
		defer func() {
			c.mu.Lock()
			c.closed = true
			c.releaseBuffersLocked()
			c.mu.Unlock()
		}()
		c.sndNextSeq, c.sndFirstUnack = fuzzBase, fuzzBase
		c.rcvNextSeq, c.rcvLargest, c.lastAcked = fuzzBase, fuzzBase, fuzzBase
		c.established = true
		queuePackets(c, 256)
		var batch sendBatch
		c.sendBurst(&batch, 1<<30)
		for _, d := range splitDatagrams(b) {
			c.handlePacket(d)
			c.sendBurst(&batch, 1<<30)

			if err := windowInvariant(c); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// windowInvariant reports the first invariant of c's windows that does
// not hold, or nil.
func windowInvariant(c *Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	inflight := int(int32(c.sndNextSeq - c.sndFirstUnack))
	switch {
	case inflight < 0:
		return fmt.Errorf("sndFirstUnack %d passed sndNextSeq %d", c.sndFirstUnack, c.sndNextSeq)
	case inflight > c.cfg.MaxFlowWindow:
		return fmt.Errorf("%d packets in flight, flow window %d", inflight, c.cfg.MaxFlowWindow)
	case c.sndUnacked.len() != inflight:
		return fmt.Errorf("%d packets stored for %d in flight", c.sndUnacked.len(), inflight)
	case c.cwnd < 1 || c.cwnd > c.cfg.MaxFlowWindow:
		return fmt.Errorf("cwnd %d outside [1, %d]", c.cwnd, c.cfg.MaxFlowWindow)
	case !c.slowStart && c.rate < minRate:
		return fmt.Errorf("pacing rate %.0f below minRate", c.rate)
	case seqLess(c.rcvLargest, c.rcvNextSeq):
		return fmt.Errorf("rcvLargest %d behind rcvNextSeq %d", c.rcvLargest, c.rcvNextSeq)
	}
	return nil
}

// FuzzDecodePackets runs every packet decoder over arbitrary bytes. None
// may panic, and whatever a decoder accepts must encode back to the bytes
// it consumed (the type byte aside, which decoders do not check).
// The seed corpus is in testdata/fuzz/FuzzDecodePackets.
func FuzzDecodePackets(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if seq, payload, err := decodeData(b); err == nil {
			if got := encodeData(nil, seq, payload); !bytes.Equal(got[1:], b[1:]) {
				t.Fatalf("data re-encodes as %x, want %x", got, b)
			}
		}
		if seq, window, err := decodeHandshake(b); err == nil {
			if got := encodeHandshake(b[0], seq, window); !bytes.Equal(got, b[:9]) {
				t.Fatalf("handshake re-encodes as %x, want %x", got, b[:9])
			}
		}
		if seq, window, err := decodeAck(b); err == nil {
			if got := encodeAck(seq, window); !bytes.Equal(got[1:], b[1:9]) {
				t.Fatalf("ACK re-encodes as %x, want %x", got, b[:9])
			}
		}
		if ranges, err := decodeNak(b); err == nil {
			for _, r := range ranges {
				if seqLess(r.to, r.from) {
					t.Fatalf("inverted range %v accepted", r)
				}
			}
			n := 3 + 8*len(ranges)
			if got := encodeNak(ranges); !bytes.Equal(got[1:], b[1:n]) {
				t.Fatalf("NAK re-encodes as %x, want %x", got, b[:n])
			}
		}
	})
}
