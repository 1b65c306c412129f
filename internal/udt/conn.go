package udt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// synInterval is UDT's fixed 10 ms control cadence: ACKs are emitted and
// the sending rate re-evaluated once per interval.
const synInterval = 10 * time.Millisecond

// Config tunes a UDT connection. The zero value gets sensible defaults;
// the paper's experiments raised buffer sizes from 12 MB to 100 MB for
// high-BDP links, which corresponds to MaxFlowWindow/RcvBuffer here.
type Config struct {
	// MaxFlowWindow bounds unacknowledged packets in flight (default
	// 8192 ≈ 11 MB of payload).
	MaxFlowWindow int
	// RcvBuffer bounds buffered packets on the receive side; also the
	// window advertised to the peer (default 8192).
	RcvBuffer int
	// SndQueue bounds bytes accepted by Write but not yet transmitted
	// (default 8 MB); full queues apply backpressure.
	SndQueue int
	// MaxRate caps the send rate in bytes/second; 0 means unlimited.
	// It paces slow start too.
	MaxRate float64
	// HandshakeTimeout bounds connection establishment (default 5 s).
	HandshakeTimeout time.Duration
	// LingerTimeout bounds how long Close waits for unsent data to drain
	// (default 10 s).
	LingerTimeout time.Duration
	// PeerDeathEXPs is how many consecutive EXP-timer expirations
	// without any ACK progress declare the peer unreachable, or, with
	// nothing in flight, how many EXP intervals without a single packet
	// from it (an idle side sends a keep-alive every interval): blocked
	// Read/Write calls fail with ErrPeerDead and every pooled buffer the
	// connection owns is released (default 20 ≈ 2 s of silence; negative
	// disables detection).
	PeerDeathEXPs int
}

func (c Config) withDefaults() Config {
	if c.MaxFlowWindow <= 0 {
		c.MaxFlowWindow = 8192
	}
	if c.RcvBuffer <= 0 {
		c.RcvBuffer = 8192
	}
	if c.SndQueue <= 0 {
		c.SndQueue = 8 << 20
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.LingerTimeout <= 0 {
		c.LingerTimeout = 10 * time.Second
	}
	if c.PeerDeathEXPs == 0 {
		c.PeerDeathEXPs = 20
	}
	return c
}

// rateIncrease is DAIMD's additive rate increase in bytes/second, applied
// per loss-free ACK after slow start, which after start-up means once per
// SYN interval.
const rateIncrease = 256 << 10

// minRate is the floor of the DAIMD controller in bytes/second.
const minRate = 128 << 10

// Slow start (UDT4's start-up): the sender is window-limited, not paced.
// The congestion window starts at initialCwnd packets and grows by every
// packet an ACK acknowledges; the receiver sends a light ACK each time its
// in-order frontier advances lightAckEvery packets, so the window is
// clocked by the data rather than by the 10 ms ACK timer. lightAckEvery
// must not exceed initialCwnd, or the first window could never trigger
// one.
const (
	initialCwnd   = 32
	lightAckEvery = 32
)

// pktBytes is the wire size of a full data packet, the unit that converts
// a window in packets into a rate in bytes/second.
const pktBytes = dataHeaderLen + mssPayload

// Errors returned by Conn operations.
var (
	// ErrClosed reports use of a closed connection.
	ErrClosed = errors.New("udt: connection closed")
	// ErrPeerDead reports a peer declared unreachable by the EXP timer
	// (Config.PeerDeathEXPs expirations with zero ACK progress, or as
	// many intervals of silence while idle).
	ErrPeerDead = errors.New("udt: peer unreachable")
	// ErrLingerExpired reports a Close whose LingerTimeout expired before
	// the peer acknowledged everything written; the rest was dropped.
	ErrLingerExpired = errors.New("udt: linger expired")
	// ErrTimeout reports an expired deadline; it satisfies net.Error.
	ErrTimeout = timeoutError{}
)

type timeoutError struct{}

func (timeoutError) Error() string   { return "udt: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// maxIdleSegCap bounds the capacity retained by a fully-drained receive
// segment queue, so one burst does not pin memory forever.
const maxIdleSegCap = 1024

// Conn is a reliable, ordered byte stream over UDP implementing net.Conn.
//
// Buffer ownership (DESIGN.md §10): every payload byte queued for sending
// or buffered for delivery lives in a bufpool buffer. Write copies caller
// bytes into pooled chunks; the chunk is owned by sndQueue, then by the
// sndUnacked ring, and returns to the pool when the cumulative ACK passes
// it (or at teardown). On the receive side handleData copies the datagram
// payload into a pooled buffer owned by the rcvOOO ring, drainContiguous
// moves it to the in-order segment queue, and Read recycles each segment
// once the application has consumed it.
type Conn struct {
	// The socket: a dialed Conn's own connected one (sock, closed with
	// the Conn), or an accepted Conn's listener socket (shared), written
	// to raddr. udp is that socket when it is a *net.UDPConn, which the
	// allocation-free writes and sendmmsg need; any other socket takes
	// the portable path, where peer is raddr as a net.Addr.
	sock    net.Conn
	shared  net.PacketConn
	udp     *net.UDPConn
	raddr   netip.AddrPort
	peer    net.Addr
	onClose func() // mux unregistration
	cfg     Config

	// mmsg batches data-packet sends with sendmmsg where available; nil
	// means one syscall per packet. Only the control loop touches it
	// after start.
	mmsg *mmsgSender

	mu        sync.Mutex
	readCond  *sync.Cond
	writeCond *sync.Cond

	// Sender state. sndUnacked holds in-flight pooled payloads indexed by
	// sequence number; loss is the sorted retransmission schedule.
	sndQueue      [][]byte
	sndQueueBytes int
	sndUnacked    *pktRing
	loss          lossRanges
	sndNextSeq    uint32
	sndFirstUnack uint32
	peerWindow    int
	// slowStart is UDT's start-up phase: in-flight packets are bounded by
	// cwnd, which grows by each ACK's acknowledged count, and no byte
	// budget applies unless MaxRate is set. The first loss event (NAK or
	// EXP) ends it, seeds rate from the window, and hands over to DAIMD:
	// rate-paced, 8/9 decrease per loss, additive increase per ACK.
	slowStart bool
	cwnd      int
	rate      float64

	// Receiver state. rcvOOO holds out-of-order pooled payloads; in-order
	// segments queue in rcvSegs[rcvSegHead:] with rcvSegOff bytes of the
	// head segment already consumed by Read.
	rcvNextSeq uint32
	rcvLargest uint32 // next seq never seen (upper frontier)
	rcvOOO     *pktRing
	rcvSegs    [][]byte
	rcvSegHead int
	rcvSegOff  int
	lastAcked  uint32
	// ackDue forces the next timer ACK even without progress: a duplicate
	// arrived, so the peer may have missed the last one.
	ackDue bool
	// lightAcksLeft counts down the in-order packets of start-up; light
	// ACKs stop at zero and the 10 ms timer alone acknowledges after.
	lightAcksLeft int

	// Lifecycle. closeOnce makes a second Close wait for the first;
	// closed is set once the linger ends.
	established   bool
	establishedCh chan struct{}
	closeOnce     sync.Once
	closed        bool
	// dead is the error every later Read and Write fails with: ErrPeerDead
	// once the EXP timer declares the peer unreachable, or the error that
	// closed a dialed Conn's socket under it. It is set with the buffers
	// already released, so no path may repool after it.
	dead       error
	peerClosed bool
	done       chan struct{}
	wg         sync.WaitGroup

	readDeadline  time.Time
	writeDeadline time.Time

	// kick wakes the control loop to send when new data is queued or an
	// ACK or NAK changed what is sendable.
	kick chan struct{}
	// heard is set by every arriving packet and cleared by each control
	// tick, which so counts the ticks of silence.
	heard atomic.Bool

	// Stats (atomic access not needed: guarded by mu).
	statRetransmits int
	statNaksSent    int
}

var _ net.Conn = (*Conn)(nil)

// newConn builds a connection to raddr over sock, a socket connected to
// it that the Conn owns, or else over shared, its listener's socket.
func newConn(sock net.Conn, shared net.PacketConn, raddr netip.AddrPort, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		sock:          sock,
		shared:        shared,
		raddr:         raddr,
		cfg:           cfg,
		sndUnacked:    newPktRing(cfg.MaxFlowWindow),
		rcvOOO:        newPktRing(cfg.RcvBuffer),
		peerWindow:    cfg.MaxFlowWindow,
		slowStart:     true,
		cwnd:          min(initialCwnd, cfg.MaxFlowWindow),
		lightAcksLeft: cfg.RcvBuffer,
		establishedCh: make(chan struct{}),
		done:          make(chan struct{}),
		kick:          make(chan struct{}, 1),
	}
	c.readCond = sync.NewCond(&c.mu)
	c.writeCond = sync.NewCond(&c.mu)
	if sock != nil {
		c.udp, _ = sock.(*net.UDPConn)
	} else if c.udp, _ = shared.(*net.UDPConn); c.udp == nil {
		c.peer = net.UDPAddrFromAddrPort(raddr)
	}
	return c
}

// start launches the control loop once the handshake completed.
func (c *Conn) start() {
	c.mmsg = newMmsgSender(c.udp, c.raddr, c.sock != nil)
	c.wg.Add(1)
	go c.controlLoop()
}

// --- net.Conn surface ---------------------------------------------------------

// Read implements net.Conn: it returns buffered in-order bytes, blocking
// until data arrives, the peer shuts down (io.EOF) or the read deadline
// expires. Consumed segments return to bufpool.
func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.rcvSegHead == len(c.rcvSegs) {
		switch {
		case c.closed:
			return 0, ErrClosed
		case c.dead != nil:
			return 0, c.dead
		case c.peerClosed:
			return 0, io.EOF
		case !c.readDeadline.IsZero() && !time.Now().Before(c.readDeadline):
			return 0, ErrTimeout
		}
		c.wait(c.readCond, c.readDeadline)
	}
	n := 0
	for n < len(b) && c.rcvSegHead < len(c.rcvSegs) {
		seg := c.rcvSegs[c.rcvSegHead]
		k := copy(b[n:], seg[c.rcvSegOff:])
		n += k
		c.rcvSegOff += k
		if c.rcvSegOff == len(seg) {
			c.rcvSegs[c.rcvSegHead] = nil
			c.rcvSegHead++
			c.rcvSegOff = 0
			bufpool.Put(seg)
		}
	}
	if c.rcvSegHead == len(c.rcvSegs) && cap(c.rcvSegs) > maxIdleSegCap {
		c.rcvSegs, c.rcvSegHead = nil, 0
	}
	return n, nil
}

// wait blocks on cond, arranging a wake-up at deadline unless it is zero.
// Caller holds mu. The wake-up takes mu to broadcast, so a deadline that
// falls due before cond.Wait has queued the caller still wakes it.
func (c *Conn) wait(cond *sync.Cond, deadline time.Time) {
	var t *time.Timer
	if !deadline.IsZero() {
		t = time.AfterFunc(time.Until(deadline), func() {
			c.mu.Lock()
			cond.Broadcast()
			c.mu.Unlock()
		})
	}
	cond.Wait()
	if t != nil {
		t.Stop()
	}
}

// pushSeg appends an in-order pooled segment for Read. Caller holds mu.
func (c *Conn) pushSeg(p []byte) {
	if c.rcvSegHead == len(c.rcvSegs) {
		// Fully drained: reuse the array from the start.
		c.rcvSegs = c.rcvSegs[:0]
		c.rcvSegHead = 0
	}
	c.rcvSegs = append(c.rcvSegs, p)
}

// segCount is the number of undelivered segments. Caller holds mu.
func (c *Conn) segCount() int { return len(c.rcvSegs) - c.rcvSegHead }

// Write implements net.Conn: it splits b into MSS-sized packets, copies
// each into a pooled buffer and queues them for paced transmission,
// blocking while the send queue is full. The whole call takes the lock
// once (plus once per backpressure stall), not once per chunk.
func (c *Conn) Write(b []byte) (int, error) {
	total := 0
	var err error
	c.mu.Lock()
	for len(b) > 0 && err == nil {
		switch {
		case c.dead != nil:
			err = c.dead
		case c.closed || c.peerClosed:
			err = ErrClosed
		case c.sndQueueBytes < c.cfg.SndQueue:
			chunk := b[:min(len(b), mssPayload)]
			dup := bufpool.Get(len(chunk))
			copy(dup, chunk)
			c.sndQueue = append(c.sndQueue, dup)
			c.sndQueueBytes += len(dup)
			total += len(chunk)
			b = b[len(chunk):]
		case !c.writeDeadline.IsZero() && !time.Now().Before(c.writeDeadline):
			err = ErrTimeout
		default:
			c.wait(c.writeCond, c.writeDeadline)
		}
	}
	c.mu.Unlock()
	if total > 0 {
		c.kickSender()
	}
	return total, err
}

func (c *Conn) kickSender() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Close implements net.Conn: it lingers until queued data drains (bounded
// by LingerTimeout), notifies the peer, recycles every pooled buffer the
// connection still owns and releases resources. When the linger expires
// with data still queued or unacknowledged, that data is dropped and Close
// returns an error wrapping ErrLingerExpired that names the bytes left
// undelivered. A concurrent or later Close waits for the first to finish
// and returns nil.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.teardown() })
	return err
}

// teardown is Close's body; closeOnce runs it once.
func (c *Conn) teardown() error {
	c.mu.Lock()
	// Linger: wait for the sender to flush queue and retransmissions.
	// Whatever ends the wait broadcasts writeCond: a burst that moves the
	// queue, ACK progress, fail, the peer's shutdown, or the deadline.
	deadline := time.Now().Add(c.cfg.LingerTimeout)
	for !c.peerClosed && c.sendPendingLocked() && time.Now().Before(deadline) {
		c.wait(c.writeCond, deadline)
	}
	expired := !c.peerClosed && c.sendPendingLocked()
	c.closed = true
	undelivered := c.releaseBuffersLocked()
	c.mu.Unlock()

	for i := 0; i < 3; i++ {
		c.send([]byte{ctlShutdown})
	}
	close(c.done)
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
	if c.onClose != nil {
		c.onClose()
	}
	if c.sock != nil {
		c.sock.Close()
	}
	c.wg.Wait()
	if expired {
		return fmt.Errorf("%w: %d bytes undelivered", ErrLingerExpired, undelivered)
	}
	return nil
}

// sendPendingLocked reports whether data is queued or unacknowledged.
// Caller holds mu.
func (c *Conn) sendPendingLocked() bool {
	return len(c.sndQueue) > 0 || c.sndUnacked.len() > 0
}

// releaseBuffersLocked returns every pooled buffer the connection owns —
// unsent queue, in-flight window, out-of-order window and undelivered
// segments — to bufpool, and reports the payload bytes of the send side
// (queued or unacknowledged) it dropped. Caller holds mu with c.closed or
// c.dead already set, so no other path will touch these buffers again.
func (c *Conn) releaseBuffersLocked() (unsent int) {
	for i, p := range c.sndQueue {
		if p != nil {
			bufpool.Put(p)
			c.sndQueue[i] = nil
		}
	}
	unsent = c.sndQueueBytes
	c.sndQueue = nil
	c.sndQueueBytes = 0
	c.sndUnacked.drain(func(p []byte) {
		unsent += len(p)
		bufpool.Put(p)
	})
	c.rcvOOO.drain(bufpool.Put)
	for i := c.rcvSegHead; i < len(c.rcvSegs); i++ {
		bufpool.Put(c.rcvSegs[i])
		c.rcvSegs[i] = nil
	}
	c.rcvSegs, c.rcvSegHead, c.rcvSegOff = nil, 0, 0
	c.loss.clear()
	return unsent
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr {
	if c.sock != nil {
		return c.sock.LocalAddr()
	}
	return c.shared.LocalAddr()
}

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return net.UDPAddrFromAddrPort(c.raddr) }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	c.readCond.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	c.writeCond.Broadcast()
	return nil
}

// Stats reports retransmission and NAK counters, for tests and metrics.
func (c *Conn) Stats() (retransmits, naksSent int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statRetransmits, c.statNaksSent
}

// Rate reports the current send rate in bytes/second: during slow start
// the rate the congestion window allows per SYN interval, after it the
// DAIMD pacing rate. Both are capped by MaxRate.
func (c *Conn) Rate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slowStart {
		return c.windowRate()
	}
	return c.rate
}

// windowRate is the congestion window expressed as bytes/second over one
// SYN interval, capped by MaxRate. Caller holds mu.
func (c *Conn) windowRate() float64 {
	r := float64(c.cwnd*pktBytes) / synInterval.Seconds()
	if c.cfg.MaxRate > 0 && r > c.cfg.MaxRate {
		r = c.cfg.MaxRate
	}
	return r
}

// tickBudget is the byte budget one SYN interval grants the sender:
// unlimited during slow start (the window alone limits it) unless MaxRate
// paces it, rate·interval after. Caller holds mu.
func (c *Conn) tickBudget() float64 {
	switch {
	case !c.slowStart:
		return c.rate * synInterval.Seconds()
	case c.cfg.MaxRate > 0:
		return c.cfg.MaxRate * synInterval.Seconds()
	default:
		return math.Inf(1)
	}
}

// sendWindow bounds the packets in flight: the peer's advertised window
// and MaxFlowWindow, and during slow start the congestion window. Caller
// holds mu.
func (c *Conn) sendWindow() int {
	w := min(c.peerWindow, c.cfg.MaxFlowWindow)
	if c.slowStart {
		w = min(w, c.cwnd)
	}
	return w
}

// --- sender --------------------------------------------------------------------

// maxBurstPackets bounds the packets encoded per lock acquisition and
// flushed per sendmmsg batch.
const maxBurstPackets = 32

// sendBatch is the sender's reusable burst scratch: packets are encoded
// back-to-back into slab under the connection lock, then flushed outside
// it. Copying into the slab under mu is what makes pooling safe — the
// moment the lock drops, an ACK may recycle the in-flight payload.
type sendBatch struct {
	slab []byte
	ends []int    // ends[i] = offset past packet i in slab
	pkts [][]byte // per-flush packet views (loss-injected drops filtered)
}

// sendBurst encodes up to maxBurstPackets packets (retransmissions first)
// into the batch slab under one lock acquisition, flushes them and reports
// the bytes consumed; 0 means nothing was sendable. An unlimited budget is
// slow start's: if a loss ended slow start since it was granted, nothing
// is sendable until a NAK's kick or the next tick brings a paced one.
func (c *Conn) sendBurst(batch *sendBatch, budget float64) int {
	batch.slab = batch.slab[:0]
	batch.ends = batch.ends[:0]
	burstBytes := 0
	queuedFresh := false
	c.mu.Lock()
	if c.closed || c.dead != nil || (math.IsInf(budget, 1) && !c.slowStart) {
		c.mu.Unlock()
		return 0
	}
	for len(batch.ends) < maxBurstPackets && float64(burstBytes) < budget {
		var payload []byte
		var seq uint32
		for {
			s, ok := c.loss.popFirst()
			if !ok {
				break
			}
			// Within [sndFirstUnack, sndNextSeq) every slot is live
			// (cumulative ACKs prune the loss list), so a hit is always
			// the right packet; a miss means it was ACKed since the NAK.
			if p := c.sndUnacked.get(s); p != nil {
				seq, payload = s, p
				break
			}
		}
		if payload != nil {
			c.statRetransmits++
		} else {
			inflight := int(int32(c.sndNextSeq - c.sndFirstUnack))
			if len(c.sndQueue) == 0 || inflight >= c.sendWindow() {
				break
			}
			payload = c.sndQueue[0]
			c.sndQueue[0] = nil
			c.sndQueue = c.sndQueue[1:]
			c.sndQueueBytes -= len(payload)
			seq = c.sndNextSeq
			c.sndNextSeq++
			c.sndUnacked.storeOwned(seq, payload)
			queuedFresh = true
		}
		batch.slab = append(batch.slab, pktData)
		batch.slab = binary.BigEndian.AppendUint32(batch.slab, seq)
		batch.slab = append(batch.slab, payload...)
		batch.ends = append(batch.ends, len(batch.slab))
		burstBytes += dataHeaderLen + len(payload)
	}
	if queuedFresh {
		c.writeCond.Broadcast()
	}
	c.mu.Unlock()
	if len(batch.ends) == 0 {
		return 0
	}
	c.flushBatch(batch)
	return burstBytes
}

// lossHook, when this package's tests set it, is consulted per outgoing
// data packet; true drops the packet before the socket, exercising NAK
// and retransmission deterministically.
var lossHook atomic.Pointer[func() bool]

// flushBatch transmits an encoded burst: the loss hook is consulted per
// packet outside the lock (a hook touching the connection must not
// deadlock), survivors go out via one sendmmsg where available, otherwise
// as sequential writes.
func (c *Conn) flushBatch(batch *sendBatch) {
	batch.pkts = batch.pkts[:0]
	drop := lossHook.Load()
	start := 0
	for _, end := range batch.ends {
		pkt := batch.slab[start:end]
		start = end
		if drop != nil && (*drop)() {
			continue
		}
		batch.pkts = append(batch.pkts, pkt)
	}
	if len(batch.pkts) == 0 {
		return
	}
	if c.mmsg != nil && len(batch.pkts) > 1 {
		if c.mmsg.send(batch.pkts) {
			return
		}
		// Batching unavailable on this socket: fall back for good.
		c.mmsg = nil
	}
	for _, p := range batch.pkts {
		c.send(p)
	}
}

// send writes a raw packet to the peer; errors are ignored (UDP is
// best-effort and reliability lives above).
func (c *Conn) send(b []byte) {
	switch {
	case c.sock != nil:
		_, _ = c.sock.Write(b)
	case c.udp != nil:
		_, _ = c.udp.WriteToUDPAddrPort(b, c.raddr)
	default:
		_, _ = c.shared.WriteTo(b, c.peer)
	}
}

// fail ends an open connection for good: blocked and later Read and
// Write calls fail with err, and every pooled buffer it owns goes home
// now rather than at some eventual Close. It is called when the peer is
// declared dead, and when a dialed Conn's socket closed under it (its own
// Close marks it closed first).
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.closed || c.dead != nil {
		c.mu.Unlock()
		return
	}
	c.dead = err
	c.releaseBuffersLocked()
	c.mu.Unlock()
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
}

// --- receiver / control --------------------------------------------------------

// expTicks is how many SYN intervals without ACK progress trigger the EXP
// timer: all unacknowledged packets go back on the loss list. This covers
// tail loss, which gap-driven NAKs cannot detect (no later packet ever
// arrives to reveal the gap).
const expTicks = 10

// controlLoop is the connection's one timer goroutine. Each SYN interval
// it emits a cumulative ACK, re-NAKs stale gaps so lost NAKs cannot stall
// the stream, and runs the sender's EXP timer. With nothing in flight it
// runs UDT4's keep-alive instead: a keep-alive packet every EXP interval,
// and death after PeerDeathEXPs intervals without a packet from a peer
// that has not shut down — so a listener does not keep a connection whose
// client vanished without a word.
//
// The same tick grants the sender its byte budget (tickBudget), spent on
// loss-list retransmissions first and then fresh data, respecting the
// send window; a kick spends what is left of it at once. Packets go out
// in bursts of up to maxBurstPackets per lock acquisition and (on Linux)
// per syscall.
func (c *Conn) controlLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(synInterval)
	defer ticker.Stop()
	var batch sendBatch
	ticks, silentTicks, staleTicks := 0, 0, 0
	expCounter, expEvents := 0, 0
	lastUnack := uint32(0)

	// tick does one SYN interval's control work and returns the byte
	// budget the interval grants.
	tick := func() float64 {
		c.mu.Lock()
		ackSeq := c.rcvNextSeq
		window := c.advertisedWindow()
		needAck := ackSeq != c.lastAcked || c.rcvOOO.len() > 0 || c.ackDue
		c.lastAcked = ackSeq
		c.ackDue = false
		var ranges []nakRange
		if c.rcvOOO.len() > 0 {
			staleTicks++
			if staleTicks >= 4 {
				ranges = c.missingRanges()
				staleTicks = 0
			}
		} else {
			staleTicks = 0
		}
		if len(ranges) > 0 {
			c.statNaksSent++
		}

		ticks++
		silentTicks++
		if c.heard.Swap(false) || c.peerClosed {
			silentTicks = 0
		}
		// EXP timer: no ACK progress while data is in flight. An expiry
		// reschedules the window, which the budget below then spends.
		died := false
		keepalive := false
		if c.sndUnacked.len() > 0 {
			if c.sndFirstUnack == lastUnack {
				expCounter++
			} else {
				expCounter = 0
				expEvents = 0
			}
			if expCounter >= expTicks && c.loss.empty() {
				expEvents++
				if c.cfg.PeerDeathEXPs > 0 && expEvents >= c.cfg.PeerDeathEXPs {
					// The peer stayed silent through PeerDeathEXPs full
					// retransmission rounds: declare it dead.
					died = true
				} else {
					c.expireLocked()
				}
				expCounter = 0
			}
		} else {
			expCounter = 0
			expEvents = 0
			keepalive = ticks%expTicks == 0
			died = c.cfg.PeerDeathEXPs > 0 && silentTicks >= expTicks*c.cfg.PeerDeathEXPs
		}
		lastUnack = c.sndFirstUnack
		budget := c.tickBudget()
		c.mu.Unlock()

		if died {
			c.fail(ErrPeerDead)
			return 0 // stay on duty for ACK/shutdown bookkeeping until Close
		}
		if needAck {
			c.send(encodeAck(ackSeq, uint32(window)))
		}
		if len(ranges) > 0 {
			c.send(encodeNak(ranges))
		}
		if keepalive {
			c.send([]byte{ctlKeepalive})
		}
		return budget
	}

	c.mu.Lock()
	budget := c.tickBudget()
	c.mu.Unlock()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			budget = tick()
		case <-c.kick:
			// Spend any remaining budget immediately; fresh budget
			// arrives with the next tick. Slow start's unlimited budget
			// ends with slow start, not at the next tick (see sendBurst).
			if math.IsInf(budget, 1) {
				c.mu.Lock()
				budget = c.tickBudget()
				c.mu.Unlock()
			}
		}
		for budget > 0 {
			n := c.sendBurst(&batch, budget)
			if n == 0 {
				break
			}
			budget -= float64(n)
			if len(batch.ends) == maxBurstPackets {
				// More is likely sendable at once, and sendmmsg on a
				// socket with buffer room never blocks: give the
				// processor back before the next burst (DESIGN.md §10),
				// and run a tick that fell due meanwhile, so ACKs and
				// the EXP timer wait behind at most one burst.
				runtime.Gosched()
				select {
				case <-ticker.C:
					budget = tick()
				default:
				}
			}
		}
	}
}

// expireLocked is the EXP timer's verdict short of peer death: cumulative
// ACKs mean everything in [sndFirstUnack, sndNextSeq) is still in flight,
// so it is rescheduled as one range, and the silence counts as a loss
// event. Caller holds mu.
func (c *Conn) expireLocked() {
	c.loss.insert(c.sndFirstUnack, c.sndNextSeq-1)
	c.onLossLocked()
}

// onLossLocked is the rate controller's response to a loss event (a NAK or
// an EXP expiry). The first one ends slow start and seeds the pacing rate
// from the window, as UDT4 does when it has no receive-rate estimate;
// every one then applies DAIMD's 8/9 decrease, floored at minRate.
// Caller holds mu.
func (c *Conn) onLossLocked() {
	if c.slowStart {
		c.slowStart = false
		c.rate = c.windowRate()
	}
	c.rate = c.rate * 8 / 9
	if c.rate < minRate {
		c.rate = minRate
	}
}

// advertisedWindow is the receive buffer space in packets. Caller holds mu.
func (c *Conn) advertisedWindow() int {
	used := c.rcvOOO.len() + c.segCount()
	w := c.cfg.RcvBuffer - used
	if w < 1 {
		w = 1
	}
	return w
}

// missingRanges lists the gaps between rcvNextSeq and the receive
// frontier. Caller holds mu.
func (c *Conn) missingRanges() []nakRange {
	var ranges []nakRange
	var cur *nakRange
	for seq := c.rcvNextSeq; seqLess(seq, c.rcvLargest); seq++ {
		if c.rcvOOO.get(seq) != nil {
			cur = nil
			continue
		}
		if cur == nil {
			ranges = append(ranges, nakRange{from: seq, to: seq})
			cur = &ranges[len(ranges)-1]
		} else {
			cur.to = seq
		}
	}
	return ranges
}

// handlePacket processes one raw datagram for this connection. Called from
// the owning mux's read loop; b is only valid for the duration of the
// call.
func (c *Conn) handlePacket(b []byte) {
	if len(b) == 0 {
		return
	}
	c.heard.Store(true)
	switch {
	case b[0] == pktData:
		c.handleData(b)
	case b[0] == ctlAck:
		c.handleAck(b)
	case b[0] == ctlNak:
		c.handleNak(b)
	case b[0] == ctlShutdown:
		c.handleShutdown()
	case b[0] == ctlHsAck:
		c.handleHsAck(b)
	case b[0] == ctlHandshake:
		// Peer retransmitted its handshake: re-acknowledge.
		c.mu.Lock()
		seq := c.sndNextSeq
		window := uint32(c.advertisedWindow())
		c.mu.Unlock()
		c.send(encodeHandshake(ctlHsAck, seq, window))
	case b[0] == ctlKeepalive:
		// Heard: nothing more to do.
	default:
		// Unknown packet: drop.
	}
}

func (c *Conn) handleData(b []byte) {
	seq, payload, err := decodeData(b)
	if err != nil || len(payload) == 0 {
		return
	}
	var gap nakRange
	hasGap := false
	var lightAck []byte
	c.mu.Lock()
	switch {
	case c.closed || c.dead != nil:
		// Teardown already recycled the receive buffers; drop.
	case seqLess(seq, c.rcvNextSeq):
		// Duplicate of already-delivered data: the sender may have missed
		// our last ACK, so the next timer ACK goes out regardless.
		c.ackDue = true
	case int(int32(seq-c.rcvNextSeq)) >= c.cfg.RcvBuffer:
		// Beyond our buffer: drop; flow control should prevent this.
	default:
		// rcvLargest is the upper frontier: the lowest seq never seen.
		// Arrivals beyond it leave a gap [rcvLargest, seq-1] that is
		// NAKed immediately (UDT's fast loss report).
		if seqLess(c.rcvLargest, seq) {
			g := nakRange{from: c.rcvLargest, to: seq - 1}
			if seqLeq(g.from, g.to) {
				gap, hasGap = g, true
			}
		}
		if seqLeq(c.rcvLargest, seq) {
			c.rcvLargest = seq + 1
		}
		if c.rcvOOO.get(seq) == nil {
			buf := bufpool.Get(len(payload))
			copy(buf, payload)
			c.rcvOOO.storeOwned(seq, buf)
			lightAck = c.drainContiguous()
		}
		if hasGap {
			c.statNaksSent++
		}
	}
	c.mu.Unlock()
	if hasGap {
		c.send(encodeNak([]nakRange{gap}))
	}
	if lightAck != nil {
		c.send(lightAck)
	}
}

// drainContiguous moves in-order packets from the out-of-order ring onto
// the read segment queue (no copying — the pooled buffer itself moves).
// During start-up it returns a light ACK for the caller to send once mu is
// released, when the in-order frontier is lightAckEvery packets past the
// last ACK; otherwise nil. Caller holds mu.
func (c *Conn) drainContiguous() (lightAck []byte) {
	moved := 0
	for {
		p := c.rcvOOO.take(c.rcvNextSeq)
		if p == nil {
			break
		}
		c.pushSeg(p)
		c.rcvNextSeq++
		moved++
	}
	if seqLess(c.rcvLargest, c.rcvNextSeq) {
		c.rcvLargest = c.rcvNextSeq
	}
	if moved == 0 {
		return nil
	}
	c.readCond.Broadcast()
	if c.lightAcksLeft <= 0 {
		return nil
	}
	c.lightAcksLeft -= moved
	if int(int32(c.rcvNextSeq-c.lastAcked)) < lightAckEvery {
		return nil
	}
	c.lastAcked = c.rcvNextSeq
	return encodeAck(c.rcvNextSeq, uint32(c.advertisedWindow()))
}

func (c *Conn) handleAck(b []byte) {
	ackSeq, window, err := decodeAck(b)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.dead != nil {
		// A late ACK cannot resurrect the connection; the windows are
		// already drained.
		c.mu.Unlock()
		return
	}
	// Clamp to what was actually sent: a corrupt or hostile ACK beyond
	// sndNextSeq must not walk the ring (alias risk) nor spin the loop.
	if seqLess(c.sndNextSeq, ackSeq) {
		ackSeq = c.sndNextSeq
	}
	if seqLess(c.sndFirstUnack, ackSeq) {
		for seq := c.sndFirstUnack; seqLess(seq, ackSeq); seq++ {
			if p := c.sndUnacked.take(seq); p != nil {
				bufpool.Put(p)
			}
		}
		// Loss-free progress: during slow start the window grows by the
		// packets this (clamped) ACK acknowledged, up to the flow window;
		// DAIMD's additive increase afterwards.
		if c.slowStart {
			c.cwnd = min(c.cwnd+int(ackSeq-c.sndFirstUnack), c.cfg.MaxFlowWindow)
		} else {
			c.rate += rateIncrease
			if c.cfg.MaxRate > 0 && c.rate > c.cfg.MaxRate {
				c.rate = c.cfg.MaxRate
			}
		}
		c.sndFirstUnack = ackSeq
		c.loss.pruneBelow(ackSeq)
		c.writeCond.Broadcast()
	}
	c.peerWindow = int(window)
	c.mu.Unlock()
	c.kickSender()
}

func (c *Conn) handleNak(b []byte) {
	ranges, err := decodeNak(b)
	if err != nil {
		return
	}
	c.mu.Lock()
	lost := false
	for _, r := range ranges {
		from, to := r.from, r.to
		// Clip to the in-flight window so hostile ranges cannot alias
		// ring slots outside [sndFirstUnack, sndNextSeq).
		if seqLess(from, c.sndFirstUnack) {
			from = c.sndFirstUnack
		}
		if seqLeq(c.sndNextSeq, to) {
			to = c.sndNextSeq - 1
		}
		if seqLess(to, from) {
			continue
		}
		c.loss.insert(from, to)
		lost = true
	}
	// A NAK naming nothing in flight is stale or hostile, not a loss.
	if !lost {
		c.mu.Unlock()
		return
	}
	c.onLossLocked()
	c.mu.Unlock()
	c.kickSender()
}

func (c *Conn) handleShutdown() {
	c.mu.Lock()
	c.peerClosed = true
	c.mu.Unlock()
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
}

func (c *Conn) handleHsAck(b []byte) {
	if initialSeq, window, err := decodeHandshake(b); err == nil {
		c.establish(initialSeq, window)
	}
}

// establish initialises receiver state from the peer's handshake: the
// listener's acknowledgement on the client side, the client's handshake
// on the listener side. Later handshakes change nothing.
func (c *Conn) establish(peerSeq uint32, window uint32) {
	c.mu.Lock()
	if !c.established {
		c.established = true
		c.rcvNextSeq = peerSeq
		c.rcvLargest = peerSeq
		c.peerWindow = int(window)
		close(c.establishedCh)
	}
	c.mu.Unlock()
}

var errHandshakeTimeout = fmt.Errorf("udt: handshake timed out")
