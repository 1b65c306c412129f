package transport

import (
	"net"
	"sync"
	"sync/atomic"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// From identifies the origin of one inbound payload: the wire protocol
// it arrived over and the remote socket address it came from. For
// stream transports (TCP, UDT) Peer is the remote address of the
// inbound connection, so all payloads read from one connection carry
// the same From; for UDP it is the datagram's source address. From is
// the per-peer FIFO key: a consumer that hands work to other goroutines
// must preserve arrival order per (Proto, Peer) itself. Core's receive
// callback decodes on the calling read loop, which keeps it for free.
type From struct {
	Proto wire.Transport
	Peer  string
}

// inConn is the endpoint's state for one inbound stream connection. The
// conn and from fields are immutable after registration; the counters
// are atomics so the read loop never takes a lock per frame.
type inConn struct {
	conn net.Conn
	from From

	frames atomic.Uint64
	bytes  atomic.Uint64
}

// inboundSet is the endpoint's table of live inbound stream connections.
// Like the outgoing registry it is one map under one mutex. Its lock is
// taken twice in a connection's life (accept and teardown) and by
// monitoring reads — never per frame, whereas SendQoS takes the outgoing
// registry's lock per message. Striping either would be worth it only if
// a measured workload showed goroutines waiting on the mutex (a mutex
// profile), which no workload in BENCHMARK.json comes near.
type inboundSet struct {
	// deaths counts inbound connections that ended from the remote side
	// or on a read error; endpoint-initiated teardown (Close) is not a
	// peer death.
	deaths atomic.Uint64

	mu     sync.Mutex //kmlint:guarded
	conns  map[*inConn]struct{}
	closed bool
}

// add records a freshly accepted stream connection. ok=false means the
// endpoint is closing and the caller must drop the connection.
func (s *inboundSet) add(proto wire.Transport, conn net.Conn) (*inConn, bool) {
	ic := &inConn{conn: conn, from: From{Proto: proto, Peer: conn.RemoteAddr().String()}}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	s.conns[ic] = struct{}{}
	return ic, true
}

// remove forgets a finished connection. One still present ended on its
// own (remote close or read error) and counts as a peer death; one
// already taken out by closeAll does not.
func (s *inboundSet) remove(ic *inConn) {
	s.mu.Lock()
	_, alive := s.conns[ic]
	delete(s.conns, ic)
	s.mu.Unlock()
	if alive {
		s.deaths.Add(1)
	}
}

// closeAll refuses further registrations and closes every registered
// connection, which unblocks its read loop. Run once, from Close.
func (s *inboundSet) closeAll() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = map[*inConn]struct{}{}
	s.mu.Unlock()
	for ic := range conns {
		ic.conn.Close()
	}
}

// InboundSummary aggregates the inbound side: live stream connections,
// the frames and bytes they have delivered, and lifetime peer deaths —
// the receive-side feed for the stats registry.
type InboundSummary struct {
	Conns  int
	Frames uint64
	Bytes  uint64
	Deaths uint64
}

// InboundTotals sums the live connections' counters and the death count.
func (e *Endpoint) InboundTotals() InboundSummary {
	s := &e.inbound
	t := InboundSummary{Deaths: s.deaths.Load()}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Conns = len(s.conns)
	for ic := range s.conns {
		t.Frames += ic.frames.Load()
		t.Bytes += ic.bytes.Load()
	}
	return t
}
