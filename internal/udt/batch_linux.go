//go:build linux && (amd64 || arm64)

package udt

// sendmmsg/recvmmsg batching over the raw file descriptor: one syscall
// moves up to a whole burst of datagrams. Implemented with
// syscall.Syscall6 against the stdlib syscall numbers (no external
// dependencies) through net.UDPConn's RawConn, so the runtime poller keeps
// working: the raw calls use MSG_DONTWAIT and return false from the
// RawConn callback on EAGAIN, which parks the goroutine until the socket
// is ready again.
//
// The mmsghdr layout below (msghdr + 32-bit msg_len + 4 bytes padding to
// the 8-byte boundary) is only correct where msghdr is the 56-byte 64-bit
// layout — hence the amd64/arm64 build constraint; other platforms take
// the sequential fallback in batch_fallback.go.

import (
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h> on 64-bit Linux.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// rawSockaddrLen is the size of sockaddr_in6, the larger of the two
// address families we speak; sockaddr_in is 16 bytes.
const rawSockaddrLen = 28

// rawSockaddr renders raddr as the kernel sockaddr bytes appropriate for
// udp's address family (a dual-stack AF_INET6 socket needs v4 peers in
// v4-mapped form). Returns nil when no valid encoding exists.
func rawSockaddr(udp *net.UDPConn, raddr netip.AddrPort) []byte {
	la, _ := udp.LocalAddr().(*net.UDPAddr)
	v4sock := la != nil && la.IP.To4() != nil
	addr := raddr.Addr().Unmap()
	if v4sock {
		if !addr.Is4() {
			return nil
		}
		b := make([]byte, 16) // sockaddr_in
		binary.NativeEndian.PutUint16(b[0:2], uint16(syscall.AF_INET))
		binary.BigEndian.PutUint16(b[2:4], raddr.Port())
		a4 := addr.As4()
		copy(b[4:8], a4[:])
		return b
	}
	b := make([]byte, rawSockaddrLen) // sockaddr_in6
	binary.NativeEndian.PutUint16(b[0:2], uint16(syscall.AF_INET6))
	binary.BigEndian.PutUint16(b[2:4], raddr.Port())
	a16 := raddr.Addr().As16() // IPv4 comes out v4-mapped
	copy(b[8:24], a16[:])
	return b
}

// parseRawSockaddr decodes a kernel sockaddr into a netip.AddrPort
// (invalid when the family is unknown). v4-mapped addresses are unmapped
// so both read paths produce identical mux keys.
func parseRawSockaddr(b []byte) netip.AddrPort {
	if len(b) < 8 {
		return netip.AddrPort{}
	}
	family := binary.NativeEndian.Uint16(b[0:2])
	port := binary.BigEndian.Uint16(b[2:4])
	switch family {
	case syscall.AF_INET:
		var a [4]byte
		copy(a[:], b[4:8])
		return netip.AddrPortFrom(netip.AddrFrom4(a), port)
	case syscall.AF_INET6:
		if len(b) < 24 {
			return netip.AddrPort{}
		}
		var a [16]byte
		copy(a[:], b[8:24])
		return netip.AddrPortFrom(netip.AddrFrom16(a).Unmap(), port)
	}
	return netip.AddrPort{}
}

// mmsgSender flushes a burst of encoded packets with one sendmmsg per
// call. Used only by the connection's control loop, so the scratch
// arrays need no locking.
type mmsgSender struct {
	rc   syscall.RawConn
	name []byte // peer sockaddr for unconnected sockets; nil when connected
	hdrs [maxBurstPackets]mmsghdr
	iovs [maxBurstPackets]syscall.Iovec

	// The RawConn callback is bound once, and it passes its input and
	// results through these fields, so a send allocates nothing.
	write  func(fd uintptr) bool
	batch  int  // headers to send
	n      int  // headers sent
	failed bool // sendmmsg failed with an error other than EAGAIN/EINTR
}

// newMmsgSender returns a batched sender for udp→raddr, or nil when
// there is no udp, batching is disabled or the descriptor is unavailable
// (callers then write sequentially).
func newMmsgSender(udp *net.UDPConn, raddr netip.AddrPort, connected bool) *mmsgSender {
	if udp == nil || batchingDisabled.Load() {
		return nil
	}
	rc, err := udp.SyscallConn()
	if err != nil {
		return nil
	}
	s := &mmsgSender{rc: rc}
	s.write = s.sendmmsg
	if !connected {
		s.name = rawSockaddr(udp, raddr)
		if s.name == nil {
			return nil
		}
	}
	return s
}

// send transmits pkts in sendmmsg batches. It reports false when batching
// failed and the caller should fall back to sequential writes; true means
// the burst was handled (including the socket-closed case, where dropping
// the tail matches best-effort UDP semantics).
func (s *mmsgSender) send(pkts [][]byte) bool {
	sent := 0
	for sent < len(pkts) {
		batch := pkts[sent:]
		if len(batch) > len(s.hdrs) {
			batch = batch[:len(s.hdrs)]
		}
		for i, p := range batch {
			s.iovs[i] = syscall.Iovec{Base: &p[0], Len: uint64(len(p))}
			h := &s.hdrs[i].hdr
			*h = syscall.Msghdr{Iov: &s.iovs[i], Iovlen: 1}
			if s.name != nil {
				h.Name = &s.name[0]
				h.Namelen = uint32(len(s.name))
			}
		}
		s.batch, s.n, s.failed = len(batch), 0, false
		if err := s.rc.Write(s.write); err != nil {
			return true // socket closed: drop the tail, like best-effort send
		}
		if s.failed || s.n == 0 {
			return false
		}
		sent += s.n
	}
	return true
}

// sendmmsg is send's RawConn callback: one sendmmsg of s.batch headers.
func (s *mmsgSender) sendmmsg(fd uintptr) bool {
	for {
		nn, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(s.batch),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			s.n = int(nn)
			return true
		case syscall.EAGAIN:
			return false // park until writable
		case syscall.EINTR:
			continue
		default:
			s.failed = true
			return true
		}
	}
}

// batchReader drains bursts of datagrams with one recvmmsg per call.
type batchReader struct {
	rc          syscall.RawConn
	hdrs        [batchReadSize]mmsghdr
	iovs        [batchReadSize]syscall.Iovec
	bufs        [batchReadSize][]byte
	names       [batchReadSize][]byte
	unsupported bool

	// The RawConn callback is bound once, and it passes its results
	// through these fields, so a read allocates nothing.
	recv      func(fd uintptr) bool
	n         int  // datagrams drained
	transient bool // recvmmsg failed with a per-packet socket error
}

// newBatchReader returns a batched reader for udp, or nil when there is no
// udp, batching is disabled or the descriptor is unavailable.
func newBatchReader(udp *net.UDPConn) *batchReader {
	if udp == nil || batchingDisabled.Load() {
		return nil
	}
	rc, err := udp.SyscallConn()
	if err != nil {
		return nil
	}
	r := &batchReader{rc: rc}
	r.recv = r.recvmmsg
	for i := range r.hdrs {
		r.bufs[i] = make([]byte, maxDatagram)
		r.names[i] = make([]byte, rawSockaddrLen)
		r.iovs[i] = syscall.Iovec{Base: &r.bufs[i][0], Len: maxDatagram}
		r.hdrs[i].hdr = syscall.Msghdr{
			Name:    &r.names[i][0],
			Namelen: rawSockaddrLen,
			Iov:     &r.iovs[i],
			Iovlen:  1,
		}
	}
	return r
}

// read blocks until at least one datagram arrives and reports how many
// were drained; payload(i)/addr(i) expose each. A nil error with 0
// packets is a transient socket error (e.g. ICMP-derived ECONNREFUSED on
// a connected socket) — callers just loop. errBatchUnsupported means the
// kernel lacks recvmmsg and the caller must switch to single reads; any
// other error is fatal (socket closed).
func (r *batchReader) read() (int, error) {
	if r.unsupported {
		return 0, errBatchUnsupported
	}
	for i := range r.hdrs {
		r.hdrs[i].hdr.Namelen = rawSockaddrLen // kernel shrinks it per packet
	}
	r.n, r.transient = 0, false
	if err := r.rc.Read(r.recv); err != nil {
		return 0, err // socket closed
	}
	if r.unsupported {
		return 0, errBatchUnsupported
	}
	if r.transient {
		return 0, nil
	}
	return r.n, nil
}

// recvmmsg is read's RawConn callback: one recvmmsg into every header.
func (r *batchReader) recvmmsg(fd uintptr) bool {
	for {
		nn, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			r.n = int(nn)
			return true
		case syscall.EAGAIN:
			return false // park until readable
		case syscall.EINTR:
			continue
		case syscall.ENOSYS:
			r.unsupported = true
			return true
		default:
			r.transient = true
			return true
		}
	}
}

// payload returns the bytes of the i-th drained datagram; valid until the
// next read call.
func (r *batchReader) payload(i int) []byte { return r.bufs[i][:r.hdrs[i].msgLen] }

// addr returns the source address of the i-th drained datagram.
func (r *batchReader) addr(i int) netip.AddrPort {
	return parseRawSockaddr(r.names[i][:r.hdrs[i].hdr.Namelen])
}
