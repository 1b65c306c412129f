package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// faninCollector records, per origin (From), the sequence numbers it
// receives in arrival order — the receive-side mirror of seqCollector.
type faninCollector struct {
	mu   sync.Mutex
	seqs map[From][]uint32
}

func newFaninCollector() *faninCollector {
	return &faninCollector{seqs: make(map[From][]uint32)}
}

func (c *faninCollector) onMessage(from From, p []byte) {
	c.mu.Lock()
	if len(p) >= 4 {
		c.seqs[from] = append(c.seqs[from], binary.BigEndian.Uint32(p))
	}
	c.mu.Unlock()
	bufpool.Put(p)
}

func (c *faninCollector) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.seqs {
		n += len(s)
	}
	return n
}

// snapshot copies the per-origin sequence lists.
func (c *faninCollector) snapshot() map[From][]uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[From][]uint32, len(c.seqs))
	for k, v := range c.seqs {
		out[k] = append([]uint32(nil), v...)
	}
	return out
}

// TestRecvOrderPropertyFanin is the per-peer inbound FIFO property test
// for the receive path: N concurrent sender endpoints blast
// randomized-size messages at ONE receiver over N inbound connections.
// Every origin must observe its own sequence numbers contiguously from 0
// in arrival order, the inbound set's accounting must match, and
// (leakCheck) no pooled buffer may leak. Run under -race -count=3 in CI.
func TestRecvOrderPropertyFanin(t *testing.T) {
	leakCheck(t)
	const (
		senders = 6
		perPeer = 200
	)
	col := newFaninCollector()
	recv, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{wire.TCP},
		OnMessage:  col.onMessage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	dest := recv.Addr(wire.TCP)

	eps := make([]*Endpoint, senders)
	for i := range eps {
		ep, err := NewEndpoint(Config{
			ListenAddr: "127.0.0.1:0",
			Protocols:  []wire.Transport{wire.TCP},
			OnMessage:  func(_ From, p []byte) { bufpool.Put(p) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		eps[i] = ep
	}

	// One goroutine per sender: per-origin submission order is that
	// goroutine's program order; payload sizes are randomized so frames
	// interleave unevenly on the wire.
	var notified sync.WaitGroup
	var mu sync.Mutex
	var sendErrs []error
	var sentBytes atomic.Uint64
	for i, ep := range eps {
		notified.Add(perPeer)
		go func(i int, ep *Endpoint) {
			rng := rand.New(rand.NewSource(int64(i)))
			for seq := uint32(0); seq < perPeer; seq++ {
				buf := bufpool.Get(8 + rng.Intn(256))
				sentBytes.Add(uint64(len(buf)))
				binary.BigEndian.PutUint32(buf, seq)
				binary.BigEndian.PutUint32(buf[4:], uint32(i))
				s := seq
				ep.Send(wire.TCP, dest, buf, func(err error) {
					if err != nil {
						mu.Lock()
						sendErrs = append(sendErrs, fmt.Errorf("sender %d seq %d: %w", i, s, err))
						mu.Unlock()
					}
					notified.Done()
				})
			}
		}(i, ep)
	}
	notified.Wait()
	mu.Lock()
	if len(sendErrs) > 0 {
		t.Fatalf("%d sends failed, first: %v", len(sendErrs), sendErrs[0])
	}
	mu.Unlock()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && col.total() < senders*perPeer {
		time.Sleep(2 * time.Millisecond)
	}
	got := col.snapshot()
	if len(got) != senders {
		t.Fatalf("received from %d origins, want %d", len(got), senders)
	}
	for from, seqs := range got {
		if from.Proto != wire.TCP {
			t.Fatalf("origin %v: unexpected protocol", from)
		}
		if len(seqs) != perPeer {
			t.Fatalf("origin %v delivered %d of %d messages", from, len(seqs), perPeer)
		}
		for j, s := range seqs {
			if s != uint32(j) {
				t.Fatalf("origin %v position %d: got seq %d, want %d — per-peer inbound FIFO violated", from, j, s, j)
			}
		}
	}
	// Inbound accounting: one live connection per origin, every frame and
	// byte counted, no deaths while the peers are alive.
	want := InboundSummary{Conns: senders, Frames: senders * perPeer, Bytes: sentBytes.Load()}
	if tot := recv.InboundTotals(); tot != want {
		t.Fatalf("InboundTotals = %+v, want %+v", tot, want)
	}

	// Closing one sender is a remote close from the receiver's point of
	// view: its connection leaves the set and counts as a peer death.
	eps[0].Close()
	waitForCond(t, "peer death accounted", func() bool { return recv.InboundTotals().Conns == senders-1 })
	if d := recv.InboundTotals().Deaths; d != 1 {
		t.Fatalf("recorded %d inbound deaths after one sender closed, want 1", d)
	}
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRecvOrderTeardownNoLeak closes the receiver in the middle of a
// concurrent fan-in: whatever prefix of each origin's stream was
// delivered must still be in order, every send must resolve its notify
// exactly once (success or error), and — the leakCheck teardown — no
// pooled buffer may be left outstanding after both sides close. This is
// the zero-leak half of the receive-path property suite.
func TestRecvOrderTeardownNoLeak(t *testing.T) {
	leakCheck(t)
	const (
		senders = 4
		perPeer = 300
	)
	fastFail := Config{
		ListenAddr:       "127.0.0.1:0",
		Protocols:        []wire.Transport{wire.TCP},
		MaxDialAttempts:  1,
		DialTimeout:      500 * time.Millisecond,
		RedialBackoff:    time.Millisecond,
		RedialBackoffMax: 5 * time.Millisecond,
	}
	col := newFaninCollector()
	rcfg := fastFail
	rcfg.OnMessage = col.onMessage
	recv, err := NewEndpoint(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	dest := recv.Addr(wire.TCP)

	eps := make([]*Endpoint, senders)
	for i := range eps {
		scfg := fastFail
		scfg.OnMessage = func(_ From, p []byte) { bufpool.Put(p) }
		ep, err := NewEndpoint(scfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		eps[i] = ep
	}

	var notified sync.WaitGroup
	for i, ep := range eps {
		notified.Add(perPeer)
		go func(i int, ep *Endpoint) {
			for seq := uint32(0); seq < perPeer; seq++ {
				buf := bufpool.Get(8)
				binary.BigEndian.PutUint32(buf, seq)
				binary.BigEndian.PutUint32(buf[4:], uint32(i))
				ep.Send(wire.TCP, dest, buf, func(error) { notified.Done() })
			}
		}(i, ep)
	}

	// Cut the receiver once the fan-in is demonstrably flowing.
	waitForCond(t, "mid-stream traffic", func() bool { return col.total() >= senders*perPeer/4 })
	recv.Close()
	if n := recv.InboundTotals().Conns; n != 0 {
		t.Fatalf("%d inbound connections registered after Close, want 0", n)
	}

	// Exactly-once: every send resolves, delivered or failed, or this
	// hangs and the test times out.
	notified.Wait()
	for from, seqs := range col.snapshot() {
		for j, s := range seqs {
			if s != uint32(j) {
				t.Fatalf("origin %v position %d: got seq %d, want %d — delivered prefix out of order", from, j, s, j)
			}
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
}

// TestRecvOrderDeathsAcrossReconnects is the regression test for the
// per-peer death map that grew by one key per dead connection: 1 000
// connect / one frame / close cycles, each from a fresh ephemeral
// address, must leave no connection registered and exactly 1 000 deaths
// in the one counter that replaced the map.
func TestRecvOrderDeathsAcrossReconnects(t *testing.T) {
	leakCheck(t)
	const cycles = 1000
	col := newFaninCollector()
	recv, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{wire.TCP},
		OnMessage:  col.onMessage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)

	frame := codec.AppendFrame(nil, []byte{0, 0, 0, 0})
	for i := 0; i < cycles; i++ {
		conn, err := net.Dial("tcp", recv.Addr(wire.TCP))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	want := InboundSummary{Deaths: cycles}
	waitForCond(t, "every connection dead and deregistered", func() bool {
		return recv.InboundTotals() == want
	})
	if n := col.total(); n != cycles {
		t.Fatalf("delivered %d of %d frames", n, cycles)
	}
}

// rawTCPReceiver starts a TCP-only endpoint delivering to col and dials a
// raw client connection to it, so the test controls exactly how the bytes
// are written.
func rawTCPReceiver(t *testing.T, col *faninCollector) (*Endpoint, net.Conn) {
	t.Helper()
	recv, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{wire.TCP},
		OnMessage:  col.onMessage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	conn, err := net.Dial("tcp", recv.Addr(wire.TCP))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return recv, conn
}

// seqFrames appends a frame per sequence number in [from, to) to stream,
// payload i carrying i in its first four bytes and 4+(i%7)*24 bytes long,
// and returns the stream with the payload bytes it added.
func seqFrames(stream []byte, from, to int) ([]byte, uint64) {
	var n uint64
	for i := from; i < to; i++ {
		p := make([]byte, 4+(i%7)*24)
		binary.BigEndian.PutUint32(p, uint32(i))
		stream = codec.AppendFrame(stream, p)
		n += uint64(len(p))
	}
	return stream, n
}

// checkOneOrigin asserts that col holds frames 0..n-1 from one origin, in
// order.
func checkOneOrigin(t *testing.T, col *faninCollector, n int) {
	t.Helper()
	seqs := col.snapshot()
	if len(seqs) != 1 {
		t.Fatalf("frames arrived from %d origins, want 1", len(seqs))
	}
	for _, got := range seqs {
		if len(got) != n {
			t.Fatalf("delivered %d of %d frames", len(got), n)
		}
		for j, s := range got {
			if s != uint32(j) {
				t.Fatalf("position %d: got seq %d — out of order", j, s)
			}
		}
	}
}

// TestRecvOrderRawTCPBatchedReads drives the buffered TCP read path from a
// raw client: 2 000 frames of mixed sizes arrive once as a single Write
// (many frames per read, frames straddling the read buffer's edge) and
// once one byte per Write (every header and payload split across reads).
// Every frame reaches OnMessage in order, and the connection's
// InboundTotals count exactly the frames and payload bytes sent.
func TestRecvOrderRawTCPBatchedReads(t *testing.T) {
	const frames = 2000
	stream, payloadBytes := seqFrames(nil, 0, frames)
	for _, tc := range []struct {
		name  string
		write func(net.Conn) error
	}{
		{"one write", func(c net.Conn) error {
			_, err := c.Write(stream)
			return err
		}},
		{"byte per write", func(c net.Conn) error {
			for i := range stream {
				if _, err := c.Write(stream[i : i+1]); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("OnMessage", func(t *testing.T) {
				leakCheck(t)
				col := newFaninCollector()
				recv, conn := rawTCPReceiver(t, col)
				if err := tc.write(conn); err != nil {
					t.Fatal(err)
				}
				want := InboundSummary{Conns: 1, Frames: frames, Bytes: payloadBytes}
				waitForCond(t, "every frame accounted", func() bool {
					return recv.InboundTotals() == want
				})
				checkOneOrigin(t, col, frames)
			})
		})
	}
}

// TestRecvOrderReadBatchStraddle: a frame cut at the end of what has been
// written is delivered only once its last byte arrives, after the frames
// before it — no later write is needed.
func TestRecvOrderReadBatchStraddle(t *testing.T) {
	leakCheck(t)
	col := newFaninCollector()
	_, conn := rawTCPReceiver(t, col)
	stream, _ := seqFrames(nil, 0, 10)
	whole := len(stream)
	stream, _ = seqFrames(stream, 10, 11)
	cut := whole + codec.FrameHeaderLen + 2 // frame 10's header and two payload bytes
	if _, err := conn.Write(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, "the ten complete frames", func() bool { return col.total() == 10 })
	time.Sleep(20 * time.Millisecond)
	if n := col.total(); n != 10 {
		t.Fatalf("%d frames delivered before the straddling frame completed, want 10", n)
	}
	if _, err := conn.Write(stream[cut:]); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, "the completed frame", func() bool { return col.total() == 11 })
	checkOneOrigin(t, col, 11)
}

// TestRecvOrderReadBatchLoneFrame: after a burst, a single frame written
// on its own is delivered without any later write to flush it.
func TestRecvOrderReadBatchLoneFrame(t *testing.T) {
	leakCheck(t)
	col := newFaninCollector()
	_, conn := rawTCPReceiver(t, col)
	stream, _ := seqFrames(nil, 0, 100)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, "the batch", func() bool { return col.total() == 100 })
	lone, _ := seqFrames(nil, 100, 101)
	if _, err := conn.Write(lone); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, "the lone frame", func() bool { return col.total() == 101 })
	checkOneOrigin(t, col, 101)
}
