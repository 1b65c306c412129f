package udt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// newLoopConn builds a Conn around a real (but idle) UDP socket for
// driving the packet handlers directly — no handshake, no background
// goroutines. Control packets it emits land in the socket's own receive
// buffer and are never read.
func newLoopConn(t *testing.T, cfg Config) *Conn {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sock.Close() })
	c := newConn(nil, sock, sock.LocalAddr().(*net.UDPAddr).AddrPort(), cfg)
	t.Cleanup(func() {
		c.mu.Lock()
		c.closed = true
		c.releaseBuffersLocked()
		c.mu.Unlock()
	})
	return c
}

// TestReceiveWindowAcrossWraparound replays an out-of-order arrival
// pattern whose sequence numbers cross ^uint32(0): the ring index math and
// the gap NAK arithmetic must behave exactly as they do mid-space.
func TestReceiveWindowAcrossWraparound(t *testing.T) {
	c := newLoopConn(t, Config{})
	start := ^uint32(0) - 1 // two packets before the wrap
	c.rcvNextSeq, c.rcvLargest = start, start

	var scratch []byte
	// Arrive out of order: start+2 (which is 0 after the wrap) first.
	c.handleData(encodeData(scratch, start+2, []byte("cc")))
	c.mu.Lock()
	if c.rcvOOO.len() != 1 || c.segCount() != 0 {
		t.Fatalf("after gap arrival: ooo=%d segs=%d", c.rcvOOO.len(), c.segCount())
	}
	gaps := c.missingRanges()
	c.mu.Unlock()
	if len(gaps) != 1 || gaps[0] != (nakRange{from: start, to: start + 1}) {
		t.Fatalf("missingRanges = %v, want [{%d %d}]", gaps, start, start+1)
	}

	c.handleData(encodeData(scratch, start, []byte("aa")))
	c.handleData(encodeData(scratch, start+1, []byte("bb")))
	c.mu.Lock()
	if c.rcvNextSeq != start+3 || c.rcvOOO.len() != 0 || c.segCount() != 3 {
		t.Fatalf("after fill: next=%d ooo=%d segs=%d", c.rcvNextSeq, c.rcvOOO.len(), c.segCount())
	}
	c.mu.Unlock()
	if start+3 != 1 {
		t.Fatalf("test setup: start+3 = %d, expected to wrap to 1", start+3)
	}

	got := make([]byte, 6)
	c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aabbcc" {
		t.Fatalf("read %q, want \"aabbcc\"", got)
	}
}

// TestSendWindowAcrossWraparound drives sendBurst, a NAK and a cumulative
// ACK through sequence numbers crossing ^uint32(0).
func TestSendWindowAcrossWraparound(t *testing.T) {
	c := newLoopConn(t, Config{})
	start := ^uint32(0) - 1
	c.sndNextSeq, c.sndFirstUnack = start, start

	c.mu.Lock()
	for i := 0; i < 4; i++ {
		b := bufpool.Get(3)
		copy(b, []byte{byte(i), byte(i), byte(i)})
		c.sndQueue = append(c.sndQueue, b)
		c.sndQueueBytes += len(b)
	}
	c.mu.Unlock()

	var batch sendBatch
	if n := c.sendBurst(&batch, 1<<20); n != 4*(dataHeaderLen+3) {
		t.Fatalf("sendBurst consumed %d bytes, want %d", n, 4*(dataHeaderLen+3))
	}
	c.mu.Lock()
	if c.sndNextSeq != start+4 || c.sndUnacked.len() != 4 {
		t.Fatalf("after burst: next=%d unacked=%d", c.sndNextSeq, c.sndUnacked.len())
	}
	c.mu.Unlock()

	// NAK a range spanning the wrap; it must land on the loss list intact.
	c.handleNak(encodeNak([]nakRange{{from: start, to: start + 2}}))
	c.mu.Lock()
	if len(c.loss.r) != 1 || c.loss.r[0] != (nakRange{from: start, to: start + 2}) {
		t.Fatalf("loss after NAK: %v", c.loss.r)
	}
	c.mu.Unlock()

	// Cumulative ACK past the wrap (start+3 == 1) releases three packets
	// and prunes the loss list.
	c.handleAck(encodeAck(start+3, 100))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sndFirstUnack != start+3 || c.sndUnacked.len() != 1 || !c.loss.empty() {
		t.Fatalf("after ACK: firstUnack=%d unacked=%d loss=%v",
			c.sndFirstUnack, c.sndUnacked.len(), c.loss.r)
	}
	if c.peerWindow != 100 {
		t.Fatalf("peerWindow = %d, want 100", c.peerWindow)
	}
}

// TestHostileAckAndNakClamped feeds control packets for sequence numbers
// that were never sent: they must neither release foreign ring slots nor
// schedule bogus retransmissions.
func TestHostileAckAndNakClamped(t *testing.T) {
	c := newLoopConn(t, Config{})
	c.sndNextSeq, c.sndFirstUnack = 100, 100
	c.mu.Lock()
	b := bufpool.Get(3)
	c.sndQueue = append(c.sndQueue, b)
	c.sndQueueBytes += 3
	c.mu.Unlock()
	var batch sendBatch
	c.sendBurst(&batch, 1<<20) // seq 100 now in flight

	// ACK far beyond anything sent: clamps to sndNextSeq (101).
	c.handleAck(encodeAck(1<<30, 10))
	c.mu.Lock()
	if c.sndFirstUnack != 101 || c.sndUnacked.len() != 0 {
		t.Fatalf("hostile ACK: firstUnack=%d unacked=%d", c.sndFirstUnack, c.sndUnacked.len())
	}
	c.mu.Unlock()

	// NAK entirely outside the (now empty) flight window: dropped.
	c.handleNak(encodeNak([]nakRange{{from: 500, to: 600}}))
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.loss.empty() {
		t.Fatalf("hostile NAK scheduled: %v", c.loss.r)
	}
}

// TestMissingRangesMergesGaps checks the gap scan over a sparse
// out-of-order window: adjacent missing sequences coalesce into one NAK
// range, present ones split them.
func TestMissingRangesMergesGaps(t *testing.T) {
	c := newLoopConn(t, Config{})
	base := uint32(100)
	c.rcvNextSeq, c.rcvLargest = base, base
	payload := []byte("x")
	var scratch []byte
	for _, seq := range []uint32{102, 103, 106} {
		c.handleData(encodeData(scratch, seq, payload))
	}
	c.mu.Lock()
	got := c.missingRanges()
	c.mu.Unlock()
	want := []nakRange{{from: 100, to: 101}, {from: 104, to: 105}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("missingRanges = %v, want %v", got, want)
	}
}

// TestFullAcceptBacklogDoesNotStallDispatch is the regression test for the
// listener head-of-line block: with the accept backlog full, a new
// handshake is shed instead of wedging the read loop, so established
// connections keep flowing.
func TestFullAcceptBacklogDoesNotStallDispatch(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var server net.Conn
	select {
	case server = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	defer server.Close()

	// Fill the accept backlog with connections nobody accepts.
	extras := make([]*Conn, 0, cap(l.acceptCh))
	defer func() {
		for _, c := range extras {
			c.Close()
		}
	}()
	for i := 0; i < cap(l.acceptCh); i++ {
		c, err := Dial(addr, Config{})
		if err != nil {
			t.Fatalf("backlog dial %d: %v", i, err)
		}
		extras = append(extras, c)
	}

	// One more handshake arrives with the backlog full; it must be shed
	// (this dial times out) without blocking the listener's read loop.
	overflow := make(chan struct{})
	go func() {
		defer close(overflow)
		if c, err := Dial(addr, Config{HandshakeTimeout: 300 * time.Millisecond}); err == nil {
			c.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the shed handshake hit dispatch

	// The established connection must still move data promptly. Before
	// the fix, dispatch was parked on acceptCh and this read timed out.
	msg := []byte("still alive")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	server.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("established conn stalled with full accept backlog: %v", err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("got %q", buf)
	}
	<-overflow
}

// TestBulkTransferBatchingDisabled forces the sequential fallback path
// (what non-Linux platforms always run) and verifies a full transfer.
func TestBulkTransferBatchingDisabled(t *testing.T) {
	prev := batchingDisabled.Load()
	batchingDisabled.Store(true)
	defer batchingDisabled.Store(prev)
	transferAndVerify(t, Config{MaxRate: 100 << 20}, 2<<20)
}

// TestDialUsesBatchedSender: Dial's socket is a *net.UDPConn, so on
// linux/amd64 and linux/arm64 the connection flushes bursts with
// sendmmsg.
func TestDialUsesBatchedSender(t *testing.T) {
	if runtime.GOOS != "linux" || (runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64") {
		t.Skip("sendmmsg batching is linux/amd64 and linux/arm64 only")
	}
	client, _, cleanup := pair(t, Config{})
	defer cleanup()
	if client.udp == nil || client.mmsg == nil {
		t.Fatalf("dialed conn: udp %v, mmsg %v; want the batched sender", client.udp, client.mmsg)
	}
}

// TestPortableSockets runs a connection over sockets that are not
// *net.UDPConn, as a wrapped or simulated socket arrives through
// NewListener and Client: no batching, the same byte stream both ways.
// A socket closed under a dialed Conn fails its blocked Read at once, not
// after PeerDeathEXPs rounds; and the listener's side, which never hears
// the shutdown, declares the silent client dead instead of keeping it.
func TestPortableSockets(t *testing.T) {
	lsock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(struct{ net.PacketConn }{lsock}, Config{PeerDeathEXPs: 3})
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	csock, err := net.DialUDP("udp", nil, lsock.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	client, err := Client(struct{ net.Conn }{csock}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.udp != nil || client.mmsg != nil {
		t.Fatal("a socket that is not a *net.UDPConn took the batched path")
	}
	var server net.Conn
	select {
	case server = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("no accept")
	}
	defer server.Close()

	up := make([]byte, 256<<10)
	rand.New(rand.NewSource(5)).Read(up)
	go client.Write(up)
	got := make([]byte, len(up))
	server.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(server, got); err != nil || !bytes.Equal(got, up) {
		t.Fatalf("client→server: %v (equal %v)", err, bytes.Equal(got, up))
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, got[:4]); err != nil || string(got[:4]) != "pong" {
		t.Fatalf("server→client: %q, %v", got[:4], err)
	}

	csock.Close()
	if _, err := client.Read(got); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Read after the socket closed: %v, want net.ErrClosed", err)
	}
	if _, err := server.Read(got); err != ErrPeerDead {
		t.Fatalf("listener side Read after its client vanished: %v, want ErrPeerDead", err)
	}
}

// TestTransferReleasesPooledBuffers runs a transfer under bufpool's leak
// accounting: once both ends are closed, every pooled buffer the UDT path
// touched must have been recycled.
func TestTransferReleasesPooledBuffers(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	bufpool.ResetStats()
	transferAndVerify(t, Config{MaxRate: 100 << 20}, 1<<20)
	if n := bufpool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers still outstanding after transfer+close", n)
	}
}
