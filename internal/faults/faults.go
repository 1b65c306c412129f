// Package faults provides deterministic, programmable fault injection
// for the wire layer. Tests hand transport.Config a socket opener that
// wraps the real one (Injector.Wrap) and script failures — refused
// dials, reset connections, stalled writes, blackholed datagrams —
// instead of killing real listeners and sleeping. The transport and UDT
// code under test is the production code: only the sockets differ.
//
// Rules are matched in insertion order against (operation, protocol,
// destination); a rule may be one-shot (Count=1), bounded (Count=n), or
// probabilistic (P in (0,1), rolled on a PRNG seeded at construction so
// runs replay exactly). The package is part of the simdet deterministic
// cone: it never reads wall-clock time and never opens a socket itself —
// the base opener does — and stalls release on rule removal, not on
// timers.
package faults

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// Errors returned by injected faults. Transport surfaces them through
// the normal notify path, so tests can assert on the exact failure.
var (
	// ErrDialRefused is returned by Dial when a Refuse rule matches.
	ErrDialRefused = errors.New("faults: dial refused")
	// ErrConnReset is returned by Write when a Reset rule matches; the
	// wrapped connection is closed so the failure is indistinguishable
	// from a real peer reset.
	ErrConnReset = errors.New("faults: connection reset")
	// ErrInjectorClosed is returned to writers released from a stall by
	// Close (as opposed to Remove, which lets the write proceed).
	ErrInjectorClosed = errors.New("faults: injector closed")
)

// Op selects which socket operation a rule intercepts.
type Op int

const (
	// OpDial intercepts every Dial of the wrapped opener.
	OpDial Op = iota + 1
	// OpWrite intercepts every write on a dialed socket: TCP stream
	// writes, and the datagrams of a UDP or UDT connection.
	OpWrite
	// OpDatagram intercepts individual outgoing datagrams: UDP sends from
	// the listening socket, and every datagram written on a dialed UDP or
	// UDT socket or on a UDT listener's socket.
	OpDatagram
)

// Action is what a matching rule does to the operation.
type Action int

const (
	// Refuse fails a dial with ErrDialRefused.
	Refuse Action = iota + 1
	// Reset fails a write with ErrConnReset and closes the connection.
	Reset
	// Stall blocks a write until the rule is removed (write proceeds)
	// or the injector is closed (write fails with ErrInjectorClosed).
	Stall
	// Drop silently discards a datagram ("blackhole").
	Drop
)

// Spec describes one fault rule. Zero values widen the match: Proto 0
// matches any protocol, empty Dest matches any destination, P 0 (or 1)
// fires on every match, Count 0 never exhausts.
type Spec struct {
	Op     Op
	Action Action
	Proto  wire.Transport // 0 = any protocol
	Dest   string         // "" = any destination
	P      float64        // trigger probability; 0 means always
	Count  int            // max times the rule fires; 0 = unlimited
}

// RuleID identifies an installed rule for Remove/Hits.
type RuleID uint64

type rule struct {
	id   RuleID
	spec Spec
	hits int
	// released is closed when the rule is removed; stalled writers wait
	// on it. The injector's closed flag distinguishes Close (fail the
	// write) from Remove (let it proceed).
	released chan struct{}
}

// Injector holds the active rule set. All methods are safe for
// concurrent use; the zero value is not valid — use New.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	nextID RuleID
	rules  []*rule
	closed bool
}

// New returns an empty injector whose probabilistic rolls are driven by
// a private PRNG seeded with seed, so a given rule script replays the
// same fault sequence every run.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), nextID: 1}
}

// Add installs a rule and returns its id. Rules are consulted in
// insertion order; the first live match wins.
func (i *Injector) Add(s Spec) RuleID {
	i.mu.Lock()
	defer i.mu.Unlock()
	id := i.nextID
	i.nextID++
	i.rules = append(i.rules, &rule{id: id, spec: s, released: make(chan struct{})})
	return id
}

// Remove deletes a rule, releasing any writer stalled on it.
func (i *Injector) Remove(id RuleID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for idx, r := range i.rules {
		if r.id == id {
			close(r.released)
			i.rules = append(i.rules[:idx], i.rules[idx+1:]...)
			return
		}
	}
}

// Close clears the rule set and marks the injector closed; writers
// stalled at the time fail with ErrInjectorClosed, and no rule matches
// afterwards.
func (i *Injector) Close() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.closed = true
	for _, r := range i.rules {
		close(r.released)
	}
	i.rules = nil
}

// Hits reports how many times the rule has fired (0 if unknown).
func (i *Injector) Hits(id RuleID) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, r := range i.rules {
		if r.id == id {
			return r.hits
		}
	}
	return 0
}

// match finds the first live rule for (op, proto, dest), rolls its
// probability, and charges a hit. Exhausted rules are skipped but left
// in place so Hits keeps reporting their final count.
func (i *Injector) match(op Op, proto wire.Transport, dest string) *rule {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.closed {
		return nil
	}
	for _, r := range i.rules {
		s := r.spec
		if s.Op != op {
			continue
		}
		if s.Proto != 0 && s.Proto != proto {
			continue
		}
		if s.Dest != "" && s.Dest != dest {
			continue
		}
		if s.Count > 0 && r.hits >= s.Count {
			continue
		}
		if s.P > 0 && s.P < 1 && i.rng.Float64() >= s.P {
			continue
		}
		r.hits++
		return r
	}
	return nil
}

// dial rules on a dial: a matching Refuse rule fails the attempt with
// ErrDialRefused.
func (i *Injector) dial(proto wire.Transport, dest string) error {
	if r := i.match(OpDial, proto, dest); r != nil && r.spec.Action == Refuse {
		return ErrDialRefused
	}
	return nil
}

// write rules on a write. Reset fails immediately; Stall parks the caller
// until the rule is removed (nil) or the injector is closed
// (ErrInjectorClosed).
func (i *Injector) write(proto wire.Transport, dest string) error {
	r := i.match(OpWrite, proto, dest)
	if r == nil {
		return nil
	}
	switch r.spec.Action {
	case Reset:
		return ErrConnReset
	case Stall:
		<-r.released
		i.mu.Lock()
		closed := i.closed
		i.mu.Unlock()
		if closed {
			return ErrInjectorClosed
		}
	}
	return nil
}

// dropDatagram rules on an outgoing datagram: true means it should
// vanish on the wire.
func (i *Injector) dropDatagram(proto wire.Transport, dest string) bool {
	r := i.match(OpDatagram, proto, dest)
	return r != nil && r.spec.Action == Drop
}

// Opener opens sockets. It is transport.Sockets, restated so that this
// package need not import transport: a *Sockets is one, and wraps one.
type Opener interface {
	Listen(addr string) (net.Listener, error)
	ListenPacket(proto wire.Transport, addr string) (net.PacketConn, error)
	Dial(proto wire.Transport, addr string, timeout time.Duration) (net.Conn, error)
}

// Sockets opens every socket through its base Opener and applies the
// injector's rules to what it opened (see Op): Dial first rules on
// OpDial, every write on a dialed socket on OpWrite, and every datagram
// on OpDatagram. Rules match the protocol a socket was opened for and
// the address it was dialed or written to. TCP listeners and what they
// accept are the base's, unwrapped.
type Sockets struct {
	Opener
	inj *Injector
}

// Wrap returns an Opener that applies the injector's rules to the
// sockets base opens.
func (i *Injector) Wrap(base Opener) *Sockets { return &Sockets{Opener: base, inj: i} }

// ListenPacket opens a datagram socket through the base opener; its
// writes are subject to OpDatagram rules for proto and the destination.
func (s *Sockets) ListenPacket(proto wire.Transport, addr string) (net.PacketConn, error) {
	pc, err := s.Opener.ListenPacket(proto, addr)
	if err != nil {
		return nil, err
	}
	return &packetConn{PacketConn: pc, inj: s.inj, proto: proto}, nil
}

// Dial fails with ErrDialRefused on a matching Refuse rule, and
// otherwise dials through the base opener and wraps the socket: its
// writes are subject to OpWrite rules, and for UDP and UDT to OpDatagram
// rules too.
func (s *Sockets) Dial(proto wire.Transport, addr string, timeout time.Duration) (net.Conn, error) {
	if err := s.inj.dial(proto, addr); err != nil {
		return nil, err
	}
	conn, err := s.Opener.Dial(proto, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: conn, inj: s.inj, proto: proto, dest: addr}, nil
}

// faultConn is a dialed socket under the injector's rules. A Reset rule
// closes the underlying socket and fails the write; a Stall rule blocks
// it until released; on a datagram socket a Drop rule discards the
// datagram while reporting it written. Reads are untouched.
type faultConn struct {
	net.Conn
	inj   *Injector
	proto wire.Transport
	dest  string
}

func (f *faultConn) Write(b []byte) (int, error) {
	if f.proto != wire.TCP && f.inj.dropDatagram(f.proto, f.dest) {
		return len(b), nil
	}
	if err := f.inj.write(f.proto, f.dest); err != nil {
		f.Conn.Close()
		return 0, err
	}
	return f.Conn.Write(b)
}

// packetConn is a listening datagram socket under the injector's
// OpDatagram rules, matched against each datagram's destination.
type packetConn struct {
	net.PacketConn
	inj   *Injector
	proto wire.Transport
}

func (p *packetConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if p.inj.dropDatagram(p.proto, addr.String()) {
		return len(b), nil
	}
	return p.PacketConn.WriteTo(b, addr)
}
