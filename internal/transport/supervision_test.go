package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/faults"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// TestQueueOverflowFailFast pins a channel in connecting (dials refused,
// virtual clock never advanced) and checks that the pending queue stops
// at MaxPendingPerPeer: overflowing sends fail immediately with
// ErrQueueFull through notify (a queue-full *ErrDropped, charged to the
// per-class drop counters), queued memory stays bounded, and every
// payload — queued or rejected — returns to the pool on close.
func TestQueueOverflowFailFast(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse})
	status := make(chan StatusEvent, 64)

	const limit = 4
	col := newEventCollector()
	ep, err := NewEndpoint(Config{
		ListenAddr:        "127.0.0.1:0",
		OnMessage:         col.onMessage,
		Protocols:         []wire.Transport{wire.TCP},
		Sockets:           inj.Wrap(NetSockets{}),
		Clock:             clock.NewVirtual(), // never advanced: backoff waits forever
		MaxPendingPerPeer: limit,
		MaxDialAttempts:   1000,
		OnStatus:          func(ev StatusEvent) { status <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	dest := "127.0.0.1:9" // never actually dialed: the injector refuses first
	notify := make(chan error, limit)
	for i := 0; i < limit; i++ {
		ep.Send(wire.TCP, dest, pooled(fmt.Sprintf("m%d", i)), func(err error) { notify <- err })
	}
	// The channel is parked in its (never-ending) backoff once the first
	// refused dial reports a retry.
	expectStatus(t, status, StatusRetry)

	overflow := make(chan error, 2)
	for i := 0; i < 2; i++ {
		ep.Send(wire.TCP, dest, pooled("overflow"), func(err error) { overflow <- err })
		err := expectNotify(t, overflow)
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow send %d: err = %v, want ErrQueueFull", i, err)
		}
		var de *ErrDropped
		if !errors.As(err, &de) || de.Reason != DropQueueFull || de.Class != wire.ClassReliable || de.Limit != limit {
			t.Fatalf("overflow send %d: err = %#v, want queue-full ErrDropped for reliable class", i, err)
		}
	}
	if got := ep.DropStats().PerClass[wire.ClassReliable].Full; got != 2 {
		t.Fatalf("reliable-class full drops = %d, want 2", got)
	}

	ch := ep.findChannel(wire.TCP, dest)
	if ch == nil {
		t.Fatal("supervised channel left the registry while retrying")
	}
	ch.mu.Lock()
	queued := len(ch.pending.msgs)
	ch.mu.Unlock()
	if queued != limit {
		t.Fatalf("queue holds %d messages, want exactly %d", queued, limit)
	}
	// Still connecting: every dial was refused, so no Up was reported.
	for len(status) > 0 {
		if ev := <-status; ev.Kind == StatusUp {
			t.Fatalf("channel reported %+v while every dial is refused", ev)
		}
	}

	// Closing the endpoint fails the bounded queue; none of the notifies
	// fired yet.
	ep.Close()
	for i := 0; i < limit; i++ {
		if err := expectNotify(t, notify); !errors.Is(err, ErrClosed) {
			t.Fatalf("queued send %d: err = %v, want ErrClosed", i, err)
		}
	}
}

// TestUDTFallbackToTCP exhausts UDT dial attempts against a peer that
// only listens on TCP: the channel must emit a fallback status event,
// redial over TCP at the un-shifted port with its queue intact, and carry
// later UDT sends for the same destination.
func TestUDTFallbackToTCP(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Proto: wire.UDT})
	status := make(chan StatusEvent, 64)

	// The receiver binds a fixed TCP port so the UDT destination can
	// follow the port+offset convention.
	port := pickFreePort(t)
	tcpAddr := fmt.Sprintf("127.0.0.1:%d", port)
	udtAddr := fmt.Sprintf("127.0.0.1:%d", port+1)
	recv := newEventCollector()
	epB, err := NewEndpoint(Config{ListenAddr: tcpAddr, OnMessage: recv.onMessage,
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
		Sockets:         inj.Wrap(NetSockets{}),
		MaxDialAttempts: 1, // degrade on the first refused dial
		OnStatus:        func(ev StatusEvent) { status <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	notify := make(chan error, 1)
	epA.Send(wire.UDT, udtAddr, pooled("via-fallback"), func(err error) { notify <- err })

	ev := expectStatus(t, status, StatusFallback)
	if ev.Proto != wire.UDT || ev.Dest != udtAddr || ev.To != wire.TCP || ev.ToDest != tcpAddr {
		t.Fatalf("fallback event %+v, want UDT %s → TCP %s", ev, udtAddr, tcpAddr)
	}
	if !errors.Is(ev.Err, faults.ErrDialRefused) {
		t.Fatalf("fallback carries err %v, want the dial failure", ev.Err)
	}
	up := expectStatus(t, status, StatusUp)
	if up.Proto != wire.UDT || up.Dest != udtAddr {
		t.Fatalf("up event %+v, want the UDT channel, now over TCP", up)
	}
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("queued message failed across fallback: %v", err)
	}
	expectDelivery(t, recv, "via-fallback")

	// Later UDT sends reroute through the registered fallback.
	epA.Send(wire.UDT, udtAddr, pooled("rerouted"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("rerouted send failed: %v", err)
	}
	expectDelivery(t, recv, "rerouted")

	if epA.findChannel(wire.UDT, udtAddr) == nil {
		t.Fatal("UDT channel left the registry after falling back")
	}
	if epA.findChannel(wire.TCP, tcpAddr) != nil {
		t.Fatal("fallback created a (TCP, tcpAddr) channel")
	}
	got := recv.all()
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2 (no duplicates)", len(got))
	}
}

// TestUDTFallbackKeepsOrderUnderLoad streams numbered messages from
// several producers at one UDT destination whose dial is refused, so the
// channel degrades to TCP while sends are in flight. The messages queued
// on the UDT channel must reach the TCP channel before any later send to
// that destination: the receiver sees every producer's sequence in order,
// each send notifies exactly once, and no buffer leaks.
func TestUDTFallbackKeepsOrderUnderLoad(t *testing.T) {
	leakCheck(t)
	const (
		producers = 4
		perProd   = 300
	)
	inj := faults.New(1)
	inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Proto: wire.UDT})

	port := pickFreePort(t)
	var mu sync.Mutex
	got := make([][]uint32, producers)
	epB, err := NewEndpoint(Config{
		ListenAddr: fmt.Sprintf("127.0.0.1:%d", port),
		Protocols:  []wire.Transport{wire.TCP},
		OnMessage: func(_ From, p []byte) {
			prod, seq := binary.BigEndian.Uint32(p), binary.BigEndian.Uint32(p[4:])
			bufpool.Put(p)
			mu.Lock()
			got[prod] = append(got[prod], seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := epB.Start(); err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	epA, err := NewEndpoint(Config{
		ListenAddr:      "127.0.0.1:0",
		OnMessage:       func(_ From, p []byte) { bufpool.Put(p) },
		Sockets:         inj.Wrap(NetSockets{}),
		MaxDialAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	udtAddr := fmt.Sprintf("127.0.0.1:%d", port+1)
	var notified sync.WaitGroup
	var failed, dups atomic.Int32
	seen := make([]atomic.Bool, producers*perProd)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 0; seq < perProd; seq++ {
				buf := bufpool.Get(8)
				binary.BigEndian.PutUint32(buf, uint32(p))
				binary.BigEndian.PutUint32(buf[4:], uint32(seq))
				notified.Add(1)
				epA.Send(wire.UDT, udtAddr, buf, func(err error) {
					if err != nil {
						failed.Add(1)
					}
					if seen[p*perProd+seq].Swap(true) {
						dups.Add(1)
					}
					notified.Done()
				})
			}
		}(p)
	}
	wg.Wait()
	notified.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d sends failed across the fallback", n)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := 0
		for _, seqs := range got {
			n += len(seqs)
		}
		mu.Unlock()
		if n == producers*perProd {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", n, producers*perProd)
		}
		time.Sleep(time.Millisecond)
	}
	if n := dups.Load(); n != 0 {
		t.Fatalf("%d sends notified more than once", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for p, seqs := range got {
		for i, s := range seqs {
			if s != uint32(i) {
				t.Fatalf("producer %d position %d: got seq %d — fallback reordered the stream", p, i, s)
			}
		}
	}
}

// TestUDTFallbackKeepsAcceptedSends falls a UDT channel back to TCP while
// the host's own TCP channel is parked on a stalled write with its queue
// at the bound. Sends the UDT channel accepted must not be re-admitted
// through that full queue: every one of them, like every TCP send, must
// succeed once the stall lifts.
func TestUDTFallbackKeepsAcceptedSends(t *testing.T) {
	leakCheck(t)
	const limit = 8
	inj := faults.New(1)
	inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Proto: wire.UDT})
	status := make(chan StatusEvent, 64)

	port := pickFreePort(t)
	tcpAddr := fmt.Sprintf("127.0.0.1:%d", port)
	udtAddr := fmt.Sprintf("127.0.0.1:%d", port+1)
	recv := newEventCollector()
	epB, err := NewEndpoint(Config{ListenAddr: tcpAddr, OnMessage: recv.onMessage,
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
		ListenAddr:        "127.0.0.1:0",
		OnMessage:         sender.onMessage,
		Sockets:           inj.Wrap(NetSockets{}),
		MaxPendingPerPeer: limit,
		MaxDialAttempts:   1,
		OnStatus: func(ev StatusEvent) {
			if ev.Proto == wire.UDT {
				status <- ev
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	const total = 1 + limit + 4
	notify := make(chan error, total)
	send := func(proto wire.Transport, dest, s string) {
		epA.Send(proto, dest, pooled(s), func(err error) { notify <- err })
	}

	// Park the TCP channel's writer on its first message, then fill its
	// queue to the bound.
	stallID := inj.Add(faults.Spec{Op: faults.OpWrite, Action: faults.Stall, Proto: wire.TCP})
	send(wire.TCP, tcpAddr, "tcp-0")
	for inj.Hits(stallID) == 0 {
		runtime.Gosched()
	}
	for i := 1; i <= limit; i++ {
		send(wire.TCP, tcpAddr, fmt.Sprintf("tcp-%d", i))
	}
	ch := epA.findChannel(wire.TCP, tcpAddr)
	ch.mu.Lock()
	queued := len(ch.pending.msgs)
	ch.mu.Unlock()
	if queued != limit {
		t.Fatalf("TCP queue holds %d, want the bound %d", queued, limit)
	}

	for i := 0; i < 4; i++ {
		send(wire.UDT, udtAddr, fmt.Sprintf("udt-%d", i))
	}
	expectStatus(t, status, StatusFallback)
	inj.Remove(stallID)

	for i := 0; i < total; i++ {
		if err := expectNotify(t, notify); err != nil {
			t.Fatalf("notify %d of %d: %v", i+1, total, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(recv.all()) < total {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", len(recv.all()), total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDTFallbackThenReset resets the TCP connection a fallen-back UDT
// channel opened: the channel redials over TCP without trying UDT again,
// its Down and Up events keep the UDT identity, and each send notifies
// exactly once (the reset one with the write error).
func TestUDTFallbackThenReset(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	udtDial := inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Proto: wire.UDT})
	status := make(chan StatusEvent, 64)

	port := pickFreePort(t)
	tcpAddr := fmt.Sprintf("127.0.0.1:%d", port)
	udtAddr := fmt.Sprintf("127.0.0.1:%d", port+1)
	recv := newEventCollector()
	epB, err := NewEndpoint(Config{ListenAddr: tcpAddr, OnMessage: recv.onMessage,
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
		Sockets:         inj.Wrap(NetSockets{}),
		MaxDialAttempts: 1,
		OnStatus:        func(ev StatusEvent) { status <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	var fired [3]atomic.Int32
	notify := make(chan error, len(fired))
	send := func(i int, s string) {
		epA.Send(wire.UDT, udtAddr, pooled(s), func(err error) {
			fired[i].Add(1)
			notify <- err
		})
	}
	expectUDT := func(kind StatusKind) StatusEvent {
		t.Helper()
		ev := expectStatus(t, status, kind)
		if ev.Proto != wire.UDT || ev.Dest != udtAddr {
			t.Fatalf("%v event %+v, want the UDT channel's identity", kind, ev)
		}
		return ev
	}

	send(0, "before")
	expectUDT(StatusFallback)
	expectUDT(StatusUp)
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("send before the reset: %v", err)
	}
	expectDelivery(t, recv, "before")
	udtDials := inj.Hits(udtDial)

	inj.Add(faults.Spec{Op: faults.OpWrite, Action: faults.Reset, Proto: wire.TCP, Count: 1})
	send(1, "reset")
	if err := expectNotify(t, notify); !errors.Is(err, faults.ErrConnReset) {
		t.Fatalf("reset send: err = %v, want ErrConnReset", err)
	}
	if down := expectUDT(StatusDown); !errors.Is(down.Err, faults.ErrConnReset) {
		t.Fatalf("down carries %v, want ErrConnReset", down.Err)
	}
	expectUDT(StatusUp)

	send(2, "after")
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("send after the redial: %v", err)
	}
	expectDelivery(t, recv, "after")
	if n := inj.Hits(udtDial); n != udtDials {
		t.Fatalf("UDT dial rule hit %d times after the reset, want %d: the redial tried UDT", n, udtDials)
	}
	epA.Close()
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Fatalf("send %d notified %d times, want once", i, n)
		}
	}
}

// TestUDTFallbackThenGiveUp refuses TCP dials too: after the fallback the
// channel exhausts its TCP attempts, fails its queue once with the TCP
// dial error and leaves the registry. The fallback lived only as long as
// the channel, so the next UDT send dials UDT again and falls back anew.
func TestUDTFallbackThenGiveUp(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	udtDial := inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Proto: wire.UDT})
	tcpDial := inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Proto: wire.TCP})
	status := make(chan StatusEvent, 64)
	vc := clock.NewVirtual()

	col := newEventCollector()
	ep, err := NewEndpoint(Config{
		ListenAddr:      "127.0.0.1:0",
		OnMessage:       col.onMessage,
		Sockets:         inj.Wrap(NetSockets{}),
		Clock:           vc,
		MaxDialAttempts: 2,
		OnStatus:        func(ev StatusEvent) { status <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	port := pickFreePort(t) // never dialed: the injector refuses first
	udtAddr := fmt.Sprintf("127.0.0.1:%d", port+1)
	tcpAddr := fmt.Sprintf("127.0.0.1:%d", port)

	var fired [4]atomic.Int32
	notify := make(chan error, len(fired))
	send := func(i int) {
		ep.Send(wire.UDT, udtAddr, pooled(fmt.Sprintf("m%d", i)), func(err error) {
			fired[i].Add(1)
			notify <- err
		})
	}
	// retry waits for a Retry and runs its backoff out.
	retry := func() {
		t.Helper()
		vc.Advance(expectStatus(t, status, StatusRetry).NextDelay)
	}

	// Three sends queue while the first UDT dial waits out its backoff.
	for i := 0; i < 3; i++ {
		send(i)
	}
	retry()
	if fb := expectStatus(t, status, StatusFallback); fb.ToDest != tcpAddr {
		t.Fatalf("fallback event %+v, want TCP %s", fb, tcpAddr)
	}
	retry()
	down := expectStatus(t, status, StatusDown)
	if down.Proto != wire.UDT || down.Dest != udtAddr || !errors.Is(down.Err, faults.ErrDialRefused) {
		t.Fatalf("down event %+v, want the UDT channel giving up on the TCP dial", down)
	}
	for i := 0; i < 3; i++ {
		if err := expectNotify(t, notify); !errors.Is(err, faults.ErrDialRefused) {
			t.Fatalf("queued send: err = %v, want the TCP dial error", err)
		}
	}
	if n := inj.Hits(tcpDial); n != 2 {
		t.Fatalf("TCP dial rule hit %d times, want 2", n)
	}
	if ep.findChannel(wire.UDT, udtAddr) != nil {
		t.Fatal("channel still registered after giving up")
	}
	if ep.findChannel(wire.TCP, tcpAddr) != nil {
		t.Fatal("fallback created a (TCP, tcpAddr) channel")
	}

	// A later send starts over with UDT.
	send(3)
	retry()
	expectStatus(t, status, StatusFallback)
	if n := inj.Hits(udtDial); n != 4 {
		t.Fatalf("UDT dial rule hit %d times, want 4: the new channel skipped UDT", n)
	}
	retry()
	expectStatus(t, status, StatusDown)
	if err := expectNotify(t, notify); !errors.Is(err, faults.ErrDialRefused) {
		t.Fatalf("later send: err = %v, want the TCP dial error", err)
	}
	ep.Close()
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Fatalf("send %d notified %d times, want once", i, n)
		}
	}
}

// TestStalledWriteReleases parks an established channel's socket writes
// on a stall rule and confirms removing the rule lets the message through
// unharmed — the injector's third failure mode next to refuse and reset.
// Over TCP the channel's own write parks, so the send is not notified
// until the release. Over UDT the rule parks the connection's datagram
// writes below its send queue: the send is accepted at once, and only
// the delivery waits.
func TestStalledWriteReleases(t *testing.T) {
	for _, proto := range []wire.Transport{wire.TCP, wire.UDT} {
		t.Run(proto.String(), func(t *testing.T) {
			leakCheck(t)
			inj := faults.New(1)
			recv := newEventCollector()
			epB, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: recv.onMessage,
				Protocols: []wire.Transport{proto}})
			if err != nil {
				t.Fatal(err)
			}
			if err := epB.Start(); err != nil {
				t.Fatal(err)
			}
			defer epB.Close()

			sender := newEventCollector()
			epA, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: sender.onMessage,
				Protocols: []wire.Transport{proto}, Sockets: inj.Wrap(NetSockets{})})
			if err != nil {
				t.Fatal(err)
			}
			if err := epA.Start(); err != nil {
				t.Fatal(err)
			}
			defer epA.Close()

			addr := epB.Addr(proto)
			notify := make(chan error, 1)
			epA.Send(proto, addr, pooled("warmup"), func(err error) { notify <- err })
			if err := expectNotify(t, notify); err != nil {
				t.Fatal(err)
			}
			expectDelivery(t, recv, "warmup")

			stallID := inj.Add(faults.Spec{Op: faults.OpWrite, Action: faults.Stall})
			epA.Send(proto, addr, pooled("stalled"), func(err error) { notify <- err })
			if proto == wire.UDT {
				if err := expectNotify(t, notify); err != nil {
					t.Fatalf("send into a stalled UDT connection not accepted: %v", err)
				}
			}
			for inj.Hits(stallID) == 0 {
				runtime.Gosched() // until the writer is parked on the rule
			}
			select {
			case err := <-notify:
				t.Fatalf("stalled write completed prematurely: %v", err)
			case got := <-recv.ch:
				t.Fatalf("%q delivered through the stall", got)
			default:
			}
			inj.Remove(stallID)
			if proto == wire.TCP {
				if err := expectNotify(t, notify); err != nil {
					t.Fatalf("write released from stall failed: %v", err)
				}
			}
			expectDelivery(t, recv, "stalled")
		})
	}
}

// TestBlackholeUDTChannel drops every datagram of an established UDT
// channel for a window: sends are accepted, nothing arrives while the
// rule holds — through at least one round of retransmissions — and once
// it is removed everything arrives, in order. UDT's own recovery rides
// the outage out below the transport, which sees no Down.
func TestBlackholeUDTChannel(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	status := make(chan StatusEvent, 16)
	recv := newEventCollector()
	epB, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: recv.onMessage,
		Protocols: []wire.Transport{wire.UDT}})
	if err != nil {
		t.Fatal(err)
	}
	if err := epB.Start(); err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	epA, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: func(_ From, p []byte) { bufpool.Put(p) },
		Protocols: []wire.Transport{wire.UDT}, Sockets: inj.Wrap(NetSockets{}),
		OnStatus: func(ev StatusEvent) { status <- ev }})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	dest := epB.Addr(wire.UDT)
	notify := make(chan error, 8)
	send := func(s string) {
		epA.Send(wire.UDT, dest, pooled(s), func(err error) { notify <- err })
	}
	send("warmup")
	if err := expectNotify(t, notify); err != nil {
		t.Fatal(err)
	}
	expectStatus(t, status, StatusUp)
	expectDelivery(t, recv, "warmup")

	drop := inj.Add(faults.Spec{Op: faults.OpDatagram, Action: faults.Drop, Proto: wire.UDT, Dest: dest})
	const n = 5
	for i := 0; i < n; i++ {
		send(fmt.Sprintf("m%d", i))
	}
	for i := 0; i < n; i++ {
		if err := expectNotify(t, notify); err != nil {
			t.Fatalf("send %d into the blackhole not accepted: %v", i, err)
		}
	}
	// The n messages leave in at most n packets, so a hit past n is a
	// retransmission.
	waitForCond(t, "a retransmission into the blackhole", func() bool { return inj.Hits(drop) > n })
	if got := recv.count(); got != 1 {
		t.Fatalf("%d messages came through the blackhole", got-1)
	}
	inj.Remove(drop)
	for i := 0; i < n; i++ {
		expectDelivery(t, recv, fmt.Sprintf("m%d", i))
	}
	select {
	case ev := <-status:
		t.Fatalf("status %+v during a blackhole UDT rides out", ev)
	default:
	}
}

// TestBlackholeUDPOneShot drops exactly one outgoing datagram: the
// blackholed message still notifies success (it left this host as far
// as transport knows) but never arrives, and the next one flows.
func TestBlackholeUDPOneShot(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	inj.Add(faults.Spec{Op: faults.OpDatagram, Action: faults.Drop, Proto: wire.UDP, Count: 1})

	recv := newEventCollector()
	epB, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: recv.onMessage,
		Protocols: []wire.Transport{wire.UDP}})
	if err != nil {
		t.Fatal(err)
	}
	if err := epB.Start(); err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	sender := newEventCollector()
	epA, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: sender.onMessage,
		Protocols: []wire.Transport{wire.UDP}, Sockets: inj.Wrap(NetSockets{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	addr := epB.Addr(wire.UDP)
	notify := make(chan error, 2)
	epA.Send(wire.UDP, addr, pooled("dropped"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("blackholed datagram must still notify success: %v", err)
	}
	epA.Send(wire.UDP, addr, pooled("arrives"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, recv, "arrives")
	got := recv.all()
	if len(got) != 1 || string(got[0]) != "arrives" {
		strs := make([]string, len(got))
		for i, m := range got {
			strs[i] = string(m)
		}
		t.Fatalf("received %q, want exactly [arrives]", strs)
	}
}

// TestBackoffDelayCapsAndJitters checks the backoff policy directly:
// doubling from the base, clamped at the max, jittered within [d/2, d),
// and reproducible for a fixed seed — whatever GOMAXPROCS the endpoint
// was built under and whichever other channels it already holds.
func TestBackoffDelayCapsAndJitters(t *testing.T) {
	mk := func(procs int, others ...string) *outChannel {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ep, err := NewEndpoint(Config{
			ListenAddr:       "127.0.0.1:0",
			OnMessage:        func(From, []byte) {},
			RedialBackoff:    100 * time.Millisecond,
			RedialBackoffMax: 800 * time.Millisecond,
			BackoffSeed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		ep.reg.mu.Lock()
		for _, dest := range others {
			key := chanKey{proto: wire.TCP, dest: dest}
			ep.reg.channels[key] = newOutChannel(ep, key)
		}
		ep.reg.mu.Unlock()
		return newOutChannel(ep, chanKey{proto: wire.TCP, dest: "z"})
	}
	c1, c2 := mk(1), mk(16, "x", "y", "10.0.0.1:7000")
	var prev time.Duration
	for attempt := 1; attempt <= 6; attempt++ {
		full := 100 * time.Millisecond << (attempt - 1)
		if full > 800*time.Millisecond {
			full = 800 * time.Millisecond
		}
		d1 := c1.backoffDelay(attempt)
		if d1 < full/2 || d1 >= full {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, full/2, full)
		}
		if d2 := c2.backoffDelay(attempt); d2 != d1 {
			t.Fatalf("attempt %d: same seed produced %v and %v", attempt, d1, d2)
		}
		if attempt > 4 && d1 < prev/2 {
			t.Fatalf("capped delays collapsed: %v after %v", d1, prev)
		}
		prev = d1
	}
}
