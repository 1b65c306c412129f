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
// ErrQueueFull through notify, queued memory stays bounded, and every
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
		Faults:            inj,
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
		if err := expectNotify(t, overflow); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow send %d: err = %v, want ErrQueueFull", i, err)
		}
	}

	ch := ep.findChannel(wire.TCP, dest)
	if ch == nil {
		t.Fatal("supervised channel left the registry while retrying")
	}
	ch.mu.Lock()
	queued := len(ch.queue)
	st := ch.state
	ch.mu.Unlock()
	if queued != limit {
		t.Fatalf("queue holds %d messages, want exactly %d", queued, limit)
	}
	if st != StateConnecting {
		t.Fatalf("channel state %v, want connecting", st)
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
// hand its queue to a TCP channel at the un-shifted port, and reroute
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
		Faults:          inj,
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
	if up.Proto != wire.TCP || up.Dest != tcpAddr {
		t.Fatalf("up event %+v, want the TCP fallback channel", up)
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

	if st, ok := epA.ChannelState(wire.TCP, tcpAddr); !ok || st != StateUp {
		t.Fatalf("TCP fallback channel state = %v (exists %v), want up", st, ok)
	}
	if _, ok := epA.ChannelState(wire.UDT, udtAddr); ok {
		t.Fatal("dead UDT channel still registered after fallback")
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
		Faults:          inj,
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

// TestStalledWriteReleases parks an established channel's write on a
// stall rule and confirms removing the rule lets the message through
// unharmed — the injector's third failure mode next to refuse and reset.
func TestStalledWriteReleases(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
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
	epA, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: sender.onMessage,
		Protocols: []wire.Transport{wire.TCP}, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Start(); err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	addr := epB.Addr(wire.TCP)
	notify := make(chan error, 1)
	epA.Send(wire.TCP, addr, pooled("warmup"), func(err error) { notify <- err })
	if err := expectNotify(t, notify); err != nil {
		t.Fatal(err)
	}
	expectDelivery(t, recv, "warmup")

	stallID := inj.Add(faults.Spec{Op: faults.OpWrite, Action: faults.Stall})
	epA.Send(wire.TCP, addr, pooled("stalled"), func(err error) { notify <- err })
	for inj.Hits(stallID) == 0 {
		runtime.Gosched() // until the writer is parked on the rule
	}
	select {
	case err := <-notify:
		t.Fatalf("stalled write completed prematurely: %v", err)
	default:
	}
	inj.Remove(stallID)
	if err := expectNotify(t, notify); err != nil {
		t.Fatalf("write released from stall failed: %v", err)
	}
	expectDelivery(t, recv, "stalled")
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
		Protocols: []wire.Transport{wire.UDP}, Faults: inj})
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
