package core

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// TestRoguePeerGarbageIgnored connects raw sockets to a running node and
// sends undecodable junk over TCP and UDP: the middleware must drop it
// and keep serving legitimate traffic.
func TestRoguePeerGarbageIgnored(t *testing.T) {
	ports := freePorts(t, 2)
	a := startSupervisedNode(t, ports[0], transport.Config{})
	b := startSupervisedNode(t, ports[1], transport.Config{})

	// Valid frame envelope, garbage payload: decode must fail gracefully.
	tcpConn, err := net.Dial("tcp", a.net.Addr(TCP))
	if err != nil {
		t.Fatal(err)
	}
	// 4-byte length prefix (8) + 8 junk bytes (flag byte 0 = raw, then a
	// serializer id that is not registered).
	tcpConn.Write([]byte{0, 0, 0, 8, 0, 0x7F, 1, 2, 3, 4, 5, 6})
	// Compressed flag with garbage body.
	tcpConn.Write([]byte{0, 0, 0, 4, 1, 0xFF, 0x00, 0x11})
	tcpConn.Close()

	udpConn, err := net.Dial("udp", a.net.Addr(UDP))
	if err != nil {
		t.Fatal(err)
	}
	udpConn.Write([]byte{0, 0x7F, 9, 9})
	udpConn.Write([]byte{}) // empty datagram
	udpConn.Close()

	// Legitimate traffic still works.
	b.send(&DataMsg{Hdr: NewHeader(b.self, a.self, TCP), Payload: []byte("ok")})
	awaitDelivery(t, a.app.recvCh, "ok")
}

// TestStopThenRestartNetwork stops the network component (listeners come
// down) and restarts it (listeners come back on the same ports). All
// synchronization is event-driven: AwaitQuiescence brackets the
// lifecycle transitions — OnStop/OnStart close and rebind listeners in
// component context — and redelivery is confirmed through notify
// responses, never by sleeping.
func TestStopThenRestartNetwork(t *testing.T) {
	ports := freePorts(t, 2)
	a := startSupervisedNode(t, ports[0], transport.Config{})
	b := startSupervisedNode(t, ports[1], transport.Config{})
	msg := func(s string) *DataMsg {
		return &DataMsg{Hdr: NewHeader(b.self, a.self, TCP), Payload: []byte(s)}
	}

	b.send(NotifyReq{ID: 1, Msg: msg("1")})
	if r := awaitNotify(t, b.app.notifyCh); r.ID != 1 || !r.Sent() {
		t.Fatalf("first send: %+v", r)
	}
	awaitDelivery(t, a.app.recvCh, "1")
	awaitStatus(t, b.status.ch, StatusUp)

	// Stop node a's network; OnStop ran before AwaitQuiescence returned,
	// so its port is free immediately.
	a.sys.Stop(a.netComp)
	a.sys.AwaitQuiescence()
	l, err := net.Listen("tcp", a.self.AsSocket())
	if err != nil {
		t.Fatalf("listener not released after stop: %v", err)
	}
	l.Close()

	// Restart: OnStart rebinds the listeners before quiescence. Node b
	// only discovers the outage when a write fails (a probe written into
	// the dead socket's buffer may still notify success and be lost —
	// at-most-once, not end-to-end delivery), so probe until a notify
	// fails, then let b's supervisor report the redial on its status port.
	a.sys.Start(a.netComp)
	a.sys.AwaitQuiescence()
	if a.net.Addr(TCP) == "" {
		t.Fatal("listeners did not come back")
	}
	probed := false
	for id := uint64(2); id < 64; id++ {
		b.send(NotifyReq{ID: id, Msg: msg("probe")})
		if r := awaitNotify(t, b.app.notifyCh); !r.Sent() {
			probed = true
			break
		}
	}
	if !probed {
		t.Fatal("writes into the dead connection never failed")
	}
	for { // drain Down (and any Retry) until the channel is up again
		if awaitAnyStatus(t, b.status.ch).Kind == StatusUp {
			break
		}
	}

	b.send(NotifyReq{ID: 100, Msg: msg("2")})
	if r := awaitNotify(t, b.app.notifyCh); r.ID != 100 || !r.Sent() {
		t.Fatalf("send after restart: %+v", r)
	}
	for { // probes that survived the reconnect may arrive first
		m := awaitAnyDelivery(t, a.app.recvCh)
		if string(m.Payload) == "2" {
			break
		}
		if string(m.Payload) != "probe" {
			t.Fatalf("unexpected delivery %q", m.Payload)
		}
	}
}

// TestWindDownNotifiesQueuedOnStop and TestWindDownNotifiesQueuedOnKill
// queue 20 NotifyReqs toward a port nobody listens on, the channel parked
// in a one-hour redial backoff, and then stop or kill the sending Network.
// The endpoint's Close fails every queued send, and each outcome must
// reach the app as exactly one failed NotifyResp within 3 s, although the
// Network component no longer handles events.
func TestWindDownNotifiesQueuedOnStop(t *testing.T) {
	testWindDownNotifies(t, func(n *supNode) { n.sys.Stop(n.netComp) })
}

func TestWindDownNotifiesQueuedOnKill(t *testing.T) {
	testWindDownNotifies(t, func(n *supNode) { n.sys.Kill(n.netComp) })
}

func testWindDownNotifies(t *testing.T, halt func(*supNode)) {
	const queued = 20
	ports := freePorts(t, 2)
	a := startSupervisedNode(t, ports[0], transport.Config{
		RedialBackoff:    time.Hour,
		RedialBackoffMax: time.Hour,
	})
	dead := MustParseAddress(fmt.Sprintf("127.0.0.1:%d", ports[1]))
	for id := uint64(1); id <= queued; id++ {
		a.send(NotifyReq{ID: id, Msg: &DataMsg{Hdr: NewHeader(a.self, dead, TCP), Payload: []byte("x")}})
	}
	awaitStatus(t, a.status.ch, StatusRetry)
	waitFor(t, "every request queued", func() bool { return a.net.QueueStats().Queued == queued })

	halt(a)
	answered := make(map[uint64]bool, queued)
	deadline := time.After(3 * time.Second)
	for len(answered) < queued {
		select {
		case r := <-a.app.notifyCh:
			if r.Sent() {
				t.Fatalf("request %d reported sent to a dead port", r.ID)
			}
			if answered[r.ID] {
				t.Fatalf("request %d answered twice", r.ID)
			}
			answered[r.ID] = true
		case <-deadline:
			t.Fatalf("%d of %d queued requests answered within 3 s", len(answered), queued)
		}
	}
	a.sys.AwaitQuiescence()
	select {
	case r := <-a.app.notifyCh:
		t.Fatalf("extra notify %+v after every request was answered", r)
	default:
	}
}
