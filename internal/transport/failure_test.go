package transport

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/faults"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// eventCollector is a collector whose deliveries can be awaited on a
// channel, so failure tests synchronize on events instead of polling.
type eventCollector struct {
	collector
	ch chan []byte
}

func newEventCollector() *eventCollector {
	return &eventCollector{ch: make(chan []byte, 256)}
}

func (c *eventCollector) onMessage(_ From, p []byte) {
	dup := make([]byte, len(p))
	copy(dup, p)
	c.mu.Lock()
	c.msgs = append(c.msgs, dup)
	c.mu.Unlock()
	bufpool.Put(p)
	select {
	case c.ch <- dup:
	default:
	}
}

// expectDelivery waits for the next inbound message and asserts its
// contents.
func expectDelivery(t *testing.T, c *eventCollector, want string) {
	t.Helper()
	select {
	case got := <-c.ch:
		if string(got) != want {
			t.Fatalf("delivered %q, want %q", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for delivery of %q", want)
	}
}

// expectStatus waits for the next status event and asserts its kind.
func expectStatus(t *testing.T, ch <-chan StatusEvent, want StatusKind) StatusEvent {
	t.Helper()
	select {
	case ev := <-ch:
		if ev.Kind != want {
			t.Fatalf("status event %v (%+v), want %v", ev.Kind, ev, want)
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %v status event", want)
		return StatusEvent{}
	}
}

func expectNotify(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for send notification")
		return nil
	}
}

// TestPeerDeathMidStreamThenRevival scripts a peer outage with the fault
// injector instead of killing a real listener: the established channel
// is reset mid-stream, redials back off under a virtual clock, and the
// exact Up / Down / Retry / Retry / Up supervision sequence is observed.
// Sends during the outage fail fast (at-most-once — never silently
// retried across the reconnect) and sends after revival flow again over
// the same supervised channel.
func TestPeerDeathMidStreamThenRevival(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	vc := clock.NewVirtual()
	status := make(chan StatusEvent, 64)

	recv := newEventCollector()
	epB, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: recv.onMessage,
		Protocols: []wire.Transport{wire.TCP}})
	if err != nil {
		t.Fatal(err)
	}
	if err := epB.Start(); err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	sender := newEventCollector()
	epA, err := NewEndpoint(Config{
		ListenAddr:      "127.0.0.1:0",
		OnMessage:       sender.onMessage,
		Protocols:       []wire.Transport{wire.TCP},
		Sockets:         inj.Wrap(NetSockets{}),
		Clock:           vc,
		MaxDialAttempts: 5,
		OnStatus:        func(ev StatusEvent) { status <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	addr := epB.Addr(wire.TCP)
	notify := make(chan error, 1)

	epA.Send(wire.TCP, addr, pooled("before"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("send before outage: %v", err)
	}
	expectStatus(t, status, StatusUp)
	expectDelivery(t, recv, "before")

	// Kill the peer: established writes reset, redials refused.
	resetID := inj.Add(faults.Spec{Op: faults.OpWrite, Action: faults.Reset})
	refuseID := inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse})

	epA.Send(wire.TCP, addr, pooled("during"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); !errors.Is(err, faults.ErrConnReset) {
		t.Fatalf("send during outage: err = %v, want ErrConnReset", err)
	}
	expectStatus(t, status, StatusDown)

	// Two refused redials under the virtual clock; each Retry event is
	// emitted after its backoff timer is armed, so advancing by the
	// reported delay deterministically triggers the next attempt.
	ev := expectStatus(t, status, StatusRetry)
	if ev.Attempt != 1 {
		t.Fatalf("first retry reports attempt %d", ev.Attempt)
	}
	vc.Advance(ev.NextDelay)
	ev = expectStatus(t, status, StatusRetry)
	if ev.Attempt != 2 {
		t.Fatalf("second retry reports attempt %d", ev.Attempt)
	}

	// Revive the peer and release the third attempt.
	inj.Remove(resetID)
	inj.Remove(refuseID)
	vc.Advance(ev.NextDelay)
	expectStatus(t, status, StatusUp)

	epA.Send(wire.TCP, addr, pooled("after"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("send after revival: %v", err)
	}
	expectDelivery(t, recv, "after")

	// At-most-once across the outage: exactly "before" and "after"
	// arrived, and the reset "during" message — whose failure notify
	// already fired — was never retransmitted.
	got := recv.all()
	if len(got) != 2 || string(got[0]) != "before" || string(got[1]) != "after" {
		strs := make([]string, len(got))
		for i, m := range got {
			strs[i] = string(m)
		}
		t.Fatalf("delivered %q, want exactly [before after]", strs)
	}
}

func pickFreePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// TestInboundGarbageFramesDropped feeds a raw TCP connection with garbage
// and oversized frames: the endpoint must drop the connection without
// disturbing other traffic.
func TestInboundGarbageFramesDropped(t *testing.T) {
	col := &collector{}
	ep, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: col.onMessage,
		Protocols: []wire.Transport{wire.TCP}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// A frame header claiming 512 MB (over codec.DefaultMaxFrame) must abort the
	// connection.
	rogue, err := net.Dial("tcp", ep.Addr(wire.TCP))
	if err != nil {
		t.Fatal(err)
	}
	rogue.Write([]byte{0x20, 0x00, 0x00, 0x00})
	rogue.Write([]byte("some payload that will never complete"))
	buf := make([]byte, 1)
	rogue.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rogue.Read(buf); err == nil {
		t.Fatal("endpoint kept a connection after an oversized frame")
	}
	rogue.Close()

	// Normal traffic still flows afterwards.
	other := &collector{}
	ep2, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: other.onMessage})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep2.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep2.Close()
	done := make(chan error, 1)
	ep2.Send(wire.TCP, ep.Addr(wire.TCP), []byte("legit"), func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("legit send failed after rogue connection: %v", err)
	}
	waitCount(t, col, 1)
}

// TestManyChannelsManyPeers exercises the channel registry with several
// destinations concurrently.
func TestManyChannelsManyPeers(t *testing.T) {
	const peers = 5
	sender := &collector{}
	epA, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: sender.onMessage})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	cols := make([]*collector, peers)
	addrs := make([]string, peers)
	for i := range cols {
		cols[i] = &collector{}
		ep, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: cols[i].onMessage,
			Protocols: []wire.Transport{wire.TCP}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		addrs[i] = ep.Addr(wire.TCP)
	}

	const per = 50
	for round := 0; round < per; round++ {
		for i := range addrs {
			epA.Send(wire.TCP, addrs[i], []byte{byte(i), byte(round)}, nil)
		}
	}
	for i, col := range cols {
		waitCount(t, col, per)
		for j, m := range col.all() {
			if m[0] != byte(i) || m[1] != byte(j) {
				t.Fatalf("peer %d message %d corrupted or out of order: %v", i, j, m)
			}
		}
	}
	if n := epA.QueueStats().Channels; n != peers {
		t.Fatalf("registry has %d channels, want %d", n, peers)
	}
}

// warnRecorder is a slog handler keeping the attributes of every Warn
// record whose message is msg.
type warnRecorder struct {
	msg     string
	mu      sync.Mutex
	records []map[string]string
}

func (h *warnRecorder) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelWarn }
func (h *warnRecorder) Handle(_ context.Context, r slog.Record) error {
	if r.Message != h.msg {
		return nil
	}
	attrs := map[string]string{}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.String()
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, attrs)
	h.mu.Unlock()
	return nil
}
func (h *warnRecorder) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *warnRecorder) WithGroup(string) slog.Handler      { return h }

// TestUDTCloseWarnsUndeliveredBytes: when the endpoint closes an outgoing
// UDT channel whose data was never acknowledged, the connection's linger
// expires and the teardown logs the bytes it lost, with the protocol and
// destination, instead of dropping them silently.
func TestUDTCloseWarnsUndeliveredBytes(t *testing.T) {
	leakCheck(t)
	epB, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: func(_ From, p []byte) { bufpool.Put(p) },
		Protocols: []wire.Transport{wire.UDT}})
	if err != nil {
		t.Fatal(err)
	}
	if err := epB.Start(); err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	dest := epB.Addr(wire.UDT)

	// Every datagram to dest vanishes once the channel is up: the
	// handshake completes, the data never does.
	inj := faults.New(1)
	rec := &warnRecorder{msg: "transport: close failed"}
	cfg := Config{
		ListenAddr: "127.0.0.1:0",
		OnMessage:  func(_ From, p []byte) { bufpool.Put(p) },
		Protocols:  []wire.Transport{wire.TCP},
		Sockets:    inj.Wrap(NetSockets{}),
		OnStatus: func(ev StatusEvent) {
			if ev.Kind == StatusUp {
				inj.Add(faults.Spec{Op: faults.OpDatagram, Action: faults.Drop, Proto: wire.UDT, Dest: dest})
			}
		},
		Logger: slog.New(rec),
	}
	cfg.UDT.LingerTimeout = 100 * time.Millisecond
	epA, err := NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	notify := make(chan error, 1)
	epA.Send(wire.UDT, dest, pooled("never acknowledged"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("send not accepted: %v", err)
	}
	epA.Close()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.records) != 1 {
		t.Fatalf("%d close warnings, want 1", len(rec.records))
	}
	got := rec.records[0]
	if got["proto"] != wire.UDT.String() || got["dest"] != dest || !strings.Contains(got["err"], "bytes undelivered") {
		t.Fatalf("close warning %v, want proto %v, dest %s and the undelivered bytes", got, wire.UDT, dest)
	}
}
