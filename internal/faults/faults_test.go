package faults

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

func TestRefuseDialMatchesAndExhausts(t *testing.T) {
	inj := New(1)
	id := inj.Add(Spec{Op: OpDial, Action: Refuse, Proto: wire.TCP, Count: 2})

	if err := inj.dial(wire.UDP, "a:1"); err != nil {
		t.Fatalf("UDP dial should not match a TCP rule: %v", err)
	}
	for n := 0; n < 2; n++ {
		if err := inj.dial(wire.TCP, "a:1"); !errors.Is(err, ErrDialRefused) {
			t.Fatalf("dial %d: got %v, want ErrDialRefused", n, err)
		}
	}
	if err := inj.dial(wire.TCP, "a:1"); err != nil {
		t.Fatalf("rule should be exhausted after 2 hits: %v", err)
	}
	if got := inj.Hits(id); got != 2 {
		t.Fatalf("Hits = %d, want 2", got)
	}
}

func TestDestFilter(t *testing.T) {
	inj := New(1)
	inj.Add(Spec{Op: OpDial, Action: Refuse, Dest: "b:2"})
	if err := inj.dial(wire.TCP, "a:1"); err != nil {
		t.Fatalf("wrong dest matched: %v", err)
	}
	if err := inj.dial(wire.TCP, "b:2"); !errors.Is(err, ErrDialRefused) {
		t.Fatalf("got %v, want ErrDialRefused", err)
	}
}

func TestResetWrite(t *testing.T) {
	inj := New(1)
	inj.Add(Spec{Op: OpWrite, Action: Reset})
	if err := inj.write(wire.TCP, "a:1"); !errors.Is(err, ErrConnReset) {
		t.Fatalf("got %v, want ErrConnReset", err)
	}
}

func TestStallReleasedByRemoveAndClose(t *testing.T) {
	inj := New(1)
	id := inj.Add(Spec{Op: OpWrite, Action: Stall})
	done := make(chan error, 1)
	go func() { done <- inj.write(wire.TCP, "a:1") }()
	// The writer is parked on the rule; removing it lets the write
	// proceed. (No way to observe "parked" without time — rely on the
	// channel semantics: Remove closes released, the goroutine returns.)
	for inj.Hits(id) == 0 {
		runtime.Gosched() // until the writer has charged its hit, i.e. is parked
	}
	inj.Remove(id)
	if err := <-done; err != nil {
		t.Fatalf("write released by Remove should succeed: %v", err)
	}

	inj.Add(Spec{Op: OpWrite, Action: Stall})
	go func() { done <- inj.write(wire.TCP, "a:1") }()
	inj.Close()
	if err := <-done; err != nil && !errors.Is(err, ErrInjectorClosed) {
		t.Fatalf("write released by Close: got %v, want ErrInjectorClosed or nil", err)
	}
	if err := inj.dial(wire.TCP, "a:1"); err != nil {
		t.Fatalf("closed injector must not match: %v", err)
	}
}

func TestDropDatagramProbabilisticIsSeeded(t *testing.T) {
	run := func(seed int64) []bool {
		inj := New(seed)
		inj.Add(Spec{Op: OpDatagram, Action: Drop, P: 0.5})
		out := make([]bool, 64)
		for n := range out {
			out[n] = inj.dropDatagram(wire.UDP, "a:1")
		}
		return out
	}
	a, b := run(7), run(7)
	drops := 0
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("same seed diverged at roll %d", n)
		}
		if a[n] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("P=0.5 produced %d/%d drops; expected a mix", drops, len(a))
	}
}

// pipeOpener is a base Opener that opens no socket: Dial returns one end
// of a net.Pipe and keeps the other in far, ListenPacket a recorder.
type pipeOpener struct {
	far []net.Conn
}

func (o *pipeOpener) Listen(string) (net.Listener, error) {
	return nil, errors.New("pipeOpener: no listeners")
}

func (o *pipeOpener) ListenPacket(wire.Transport, string) (net.PacketConn, error) {
	return &sentPackets{}, nil
}

func (o *pipeOpener) Dial(wire.Transport, string, time.Duration) (net.Conn, error) {
	near, far := net.Pipe()
	o.far = append(o.far, far)
	return near, nil
}

// sentPackets is a datagram socket that records the destination of each
// datagram written to it; nothing else of it is used.
type sentPackets struct {
	net.PacketConn
	to []string
}

func (p *sentPackets) WriteTo(b []byte, addr net.Addr) (int, error) {
	p.to = append(p.to, addr.String())
	return len(b), nil
}

// TestSocketsApplyRules drives the wrapper over sockets that go nowhere:
// a refused dial never reaches the base, a datagram Drop rule swallows a
// UDT socket's writes but not a TCP stream's, a Reset fails the write and
// closes the socket under it, and a listening datagram socket drops by
// destination.
func TestSocketsApplyRules(t *testing.T) {
	inj := New(1)
	base := &pipeOpener{}
	s := inj.Wrap(base)

	refuse := inj.Add(Spec{Op: OpDial, Action: Refuse, Dest: "a:1"})
	if _, err := s.Dial(wire.TCP, "a:1", time.Second); !errors.Is(err, ErrDialRefused) || len(base.far) != 0 {
		t.Fatalf("refused dial: err %v, %d base dials", err, len(base.far))
	}
	inj.Remove(refuse)

	inj.Add(Spec{Op: OpDatagram, Action: Drop, Dest: "a:1"})
	udtSock, err := s.Dial(wire.UDT, "a:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing reads the pipe, so a write that reached it would block.
	if n, err := udtSock.Write([]byte("gone")); n != 4 || err != nil {
		t.Fatalf("dropped datagram: wrote %d, %v; want it reported written", n, err)
	}
	tcpSock, err := s.Dial(wire.TCP, "a:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		b := make([]byte, 16)
		n, _ := base.far[1].Read(b)
		got <- string(b[:n])
	}()
	if _, err := tcpSock.Write([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s != "kept" {
		t.Fatalf("stream received %q, want kept", s)
	}

	inj.Add(Spec{Op: OpWrite, Action: Reset, Proto: wire.TCP, Count: 1})
	if _, err := tcpSock.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("reset write: %v, want ErrConnReset", err)
	}
	if _, err := base.far[1].Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("far end read %v after the reset, want EOF: the socket stayed open", err)
	}

	pc, err := s.ListenPacket(wire.UDP, "l:1")
	if err != nil {
		t.Fatal(err)
	}
	inj.Add(Spec{Op: OpDatagram, Action: Drop, Proto: wire.UDP, Dest: "127.0.0.1:2"})
	for port := 1; port <= 2; port++ {
		if _, err := pc.WriteTo([]byte("x"), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}); err != nil {
			t.Fatal(err)
		}
	}
	if to := pc.(*packetConn).PacketConn.(*sentPackets).to; len(to) != 1 || to[0] != "127.0.0.1:1" {
		t.Fatalf("datagrams reached %v, want only 127.0.0.1:1", to)
	}
}
