package udt

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"
)

// maxDatagram bounds received datagram size; larger packets are truncated
// by the kernel anyway for our MTU-sized sends.
const maxDatagram = 2048

// Listener accepts UDT connections on a datagram socket, demultiplexing
// datagrams to per-peer connections. It implements net.Listener.
type Listener struct {
	sock net.PacketConn
	cfg  Config

	mu       sync.Mutex
	conns    map[netip.AddrPort]*Conn
	acceptCh chan *Conn
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup
}

var _ net.Listener = (*Listener)(nil)

// Listen opens a UDP socket on the given address ("host:port") and
// starts a UDT listener on it (NewListener).
func Listen(addr string, cfg Config) (*Listener, error) {
	sock, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udt: listen %q: %w", addr, err)
	}
	return NewListener(sock, cfg), nil
}

// NewListener starts a UDT listener on sock, which it owns from then on:
// Close closes it. Any datagram socket serves whose sources are
// *net.UDPAddr and whose reads fail with net.ErrClosed once it is
// closed; a *net.UDPConn gets batched syscalls and larger kernel buffers.
func NewListener(sock net.PacketConn, cfg Config) *Listener {
	udp, _ := sock.(*net.UDPConn)
	tuneSocket(udp)
	l := &Listener{
		sock:     sock,
		cfg:      cfg.withDefaults(),
		conns:    make(map[netip.AddrPort]*Conn),
		acceptCh: make(chan *Conn, 16),
		done:     make(chan struct{}),
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		readDatagrams(udp, func(b []byte) (int, netip.AddrPort, error) {
			n, from, err := sock.ReadFrom(b)
			ua, _ := from.(*net.UDPAddr)
			return n, ua.AddrPort(), err
		}, l.dispatch)
	}()
	return l
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.done:
		return nil, ErrListenerClosed
	}
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.sock.LocalAddr() }

// Close implements net.Listener: it stops accepting and closes every
// connection.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]*Conn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()

	close(l.done)
	l.sock.Close()
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return nil
}

// readDatagrams hands every datagram read from a socket to handle until
// the socket closes, and returns the error that ended the reads; it is
// the read loop of both a Listener and a Client. read reads one datagram
// and its source from the socket; udp is the socket when it is a
// *net.UDPConn, and then, where the platform supports it, recvmmsg
// drains a whole burst per syscall instead, or else ReadMsgUDPAddrPort
// reads one datagram per call (which, unlike ReadFromUDP, does not
// allocate a *net.UDPAddr per packet). Other socket errors than
// net.ErrClosed are transient: a connected socket surfaces ICMP
// port-unreachable as ECONNREFUSED when a handshake raced the peer's
// bind, and the handshake retries.
//
// Under bulk traffic the socket is never empty, so the loop would run
// without blocking until Go preempts it (≈ 10 ms): it yields the
// processor after every full recvmmsg batch, and after every
// batchReadSize datagrams on the portable path (DESIGN.md §10).
func readDatagrams(udp *net.UDPConn, read func([]byte) (int, netip.AddrPort, error), handle func(b []byte, from netip.AddrPort)) error {
	if br := newBatchReader(udp); br != nil {
		for {
			n, err := br.read()
			for i := 0; i < n; i++ {
				handle(br.payload(i), br.addr(i))
			}
			if errors.Is(err, errBatchUnsupported) {
				break // fall through to the portable loop
			}
			if err != nil {
				return err // socket closed: transient errors come back as 0, nil
			}
			if n == batchReadSize {
				runtime.Gosched()
			}
		}
	}
	if udp != nil {
		read = func(b []byte) (int, netip.AddrPort, error) {
			n, _, _, from, err := udp.ReadMsgUDPAddrPort(b, nil)
			return n, from, err
		}
	}
	buf := make([]byte, maxDatagram)
	for n := 1; ; n++ {
		k, from, err := read(buf)
		if k > 0 {
			handle(buf[:k], from)
		}
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		if n%batchReadSize == 0 {
			runtime.Gosched()
		}
	}
}

// dispatch routes one datagram. Established-connection traffic takes the
// lock only for the map lookup; handshake decoding and connection
// construction happen outside it so a malformed or slow handshake cannot
// serialize dispatch for everyone else. Accept hand-off never blocks: when
// the backlog is full the handshake is shed and the client's retry ticker
// tries again, instead of the old behaviour of stalling the whole read
// loop (and with it every established connection on the socket).
func (l *Listener) dispatch(b []byte, raddr netip.AddrPort) {
	if len(b) == 0 {
		return
	}
	raddr = unmapAddrPort(raddr) // v4-mapped and plain v4 must hit the same key
	l.mu.Lock()
	conn, ok := l.conns[raddr]
	closed := l.closed
	l.mu.Unlock()
	if ok {
		conn.handlePacket(b)
		return
	}
	if b[0] != ctlHandshake || closed {
		return // stray packet for an unknown peer
	}
	clientSeq, window, err := decodeHandshake(b)
	if err != nil {
		return
	}
	if len(l.acceptCh) == cap(l.acceptCh) {
		return // backlog full: shed before constructing anything
	}
	conn = newConn(nil, l.sock, raddr, l.cfg)
	conn.sndNextSeq = randomInitialSeq()
	conn.sndFirstUnack = conn.sndNextSeq
	conn.lastAcked = clientSeq
	conn.onClose = func() { l.forget(raddr) }
	conn.establish(clientSeq, window)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if existing, ok := l.conns[raddr]; ok {
		// Lost a race with a handshake retransmit: keep the first conn.
		l.mu.Unlock()
		existing.handlePacket(b)
		return
	}
	l.conns[raddr] = conn
	l.mu.Unlock()

	conn.send(encodeHandshake(ctlHsAck, conn.sndNextSeq, uint32(conn.cfg.RcvBuffer)))
	conn.start()
	select {
	case l.acceptCh <- conn:
	default:
		// Backlog filled between the shed check and here: drop the conn
		// rather than block the read loop.
		conn.Close()
	}
}

func (l *Listener) forget(key netip.AddrPort) {
	l.mu.Lock()
	delete(l.conns, key)
	l.mu.Unlock()
}

// Dial opens a UDP socket connected to a UDT listener at addr
// ("host:port") and connects over it (Client).
func Dial(addr string, cfg Config) (*Conn, error) {
	sock, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udt: dial %q: %w", addr, err)
	}
	return Client(sock, cfg)
}

// Client connects to a UDT listener over sock, a datagram socket
// connected to it whose RemoteAddr is a *net.UDPAddr. The Conn owns sock:
// Close closes it, so does a failed handshake, and a sock closed under
// the Conn fails its I/O. A *net.UDPConn gets batched syscalls and larger
// kernel buffers; any other socket takes the portable path.
func Client(sock net.Conn, cfg Config) (*Conn, error) {
	ua, _ := sock.RemoteAddr().(*net.UDPAddr)
	conn := newConn(sock, nil, unmapAddrPort(ua.AddrPort()), cfg)
	tuneSocket(conn.udp)
	conn.sndNextSeq = randomInitialSeq()
	conn.sndFirstUnack = conn.sndNextSeq

	// The client-side read loop lives until the socket closes (on
	// conn.Close, below on handshake failure, or under the Conn). It joins
	// conn.wg so Close, which closes the socket before waiting, reaps it —
	// without this the loop outlived every dialed connection until
	// process exit.
	conn.wg.Add(1)
	go func() {
		defer conn.wg.Done()
		err := readDatagrams(conn.udp, func(b []byte) (int, netip.AddrPort, error) {
			n, err := sock.Read(b)
			return n, conn.raddr, err
		}, func(b []byte, _ netip.AddrPort) { conn.handlePacket(b) })
		conn.fail(fmt.Errorf("udt: socket failed: %w", err))
	}()

	// Handshake with retry: resend on a ticker until the peer's response
	// closes establishedCh or the overall timer fires. Both waits park on
	// channels — no clock polling.
	hs := encodeHandshake(ctlHandshake, conn.sndNextSeq, uint32(conn.cfg.RcvBuffer))
	timeout := time.NewTimer(conn.cfg.HandshakeTimeout)
	defer timeout.Stop()
	retry := time.NewTicker(100 * time.Millisecond)
	defer retry.Stop()
	established := false
	conn.send(hs)
	for !established {
		select {
		case <-conn.establishedCh:
			established = true
		case <-retry.C:
			conn.send(hs)
		case <-timeout.C:
			sock.Close()
			return nil, errHandshakeTimeout
		}
	}
	conn.start()
	return conn, nil
}

// seqRng feeds randomInitialSeq from a locally seeded source instead of
// the global math/rand state, so kmlint's simdet scope can later extend
// over this package without flagging shared-RNG nondeterminism.
var seqRng = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(time.Now().UnixNano()))}

// randomInitialSeq avoids colliding sequence spaces between connections.
func randomInitialSeq() uint32 {
	seqRng.mu.Lock()
	defer seqRng.mu.Unlock()
	return seqRng.r.Uint32() >> 1 // keep distance from wraparound in tests
}

// unmapAddrPort strips any v4-in-v6 mapping so the same peer always
// produces the same mux key regardless of which read path saw it.
func unmapAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// ErrListenerClosed reports Accept on a closed listener.
var ErrListenerClosed = errors.New("udt: listener closed")

// tuneSocket enlarges kernel buffers: UDT bursts many datagrams per SYN
// interval and small default buffers drop tails of bursts. Mirrors the
// paper's tuning of UDT buffer sizes for high-BDP links; best-effort
// (the kernel may clamp to its rmem/wmem limits). Only a *net.UDPConn
// is tuned.
func tuneSocket(sock *net.UDPConn) {
	if sock == nil {
		return
	}
	const want = 8 << 20
	_ = sock.SetReadBuffer(want)
	_ = sock.SetWriteBuffer(want)
}
