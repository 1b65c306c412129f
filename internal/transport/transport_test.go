package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// collector gathers inbound payloads.
type collector struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (c *collector) onMessage(_ From, p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dup := make([]byte, len(p))
	copy(dup, p)
	c.msgs = append(c.msgs, dup)
	// OnMessage owns p; returning it keeps the endpoints' pooled buffers
	// cycling, which the leakCheck teardown asserts.
	bufpool.Put(p)
}

// leakCheck arms bufpool's debug accounting for the test and asserts at
// teardown that every pooled buffer taken on the wire path came back. It
// must be registered before the endpoints' own Cleanup so that (LIFO) the
// assertion runs after Close has drained and recycled in-flight buffers.
func leakCheck(t *testing.T) {
	t.Helper()
	bufpool.ResetStats()
	bufpool.SetDebug(true)
	t.Cleanup(func() {
		bufpool.SetDebug(false)
		if n := bufpool.Outstanding(); n != 0 {
			t.Errorf("bufpool leak: %d buffer(s) outstanding after endpoint close", n)
		}
	})
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) all() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func newEndpointPair(t *testing.T) (a, b *Endpoint, ca, cb *collector) {
	t.Helper()
	leakCheck(t)
	ca, cb = &collector{}, &collector{}
	mk := func(col *collector) *Endpoint {
		ep, err := NewEndpoint(Config{
			ListenAddr: "127.0.0.1:0",
			OnMessage:  col.onMessage,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a = mk(ca)
	b = mk(cb)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, ca, cb
}

// pooled copies s into a pool-owned buffer. Send recycles its payload
// once the outcome is decided, so test payloads must come from the pool
// for leakCheck's Get/Put accounting to balance.
func pooled(s string) []byte {
	b := bufpool.Get(len(s))
	copy(b, s)
	return b
}

func waitCount(t *testing.T, c *collector, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.count() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out: received %d of %d messages", c.count(), n)
}

func TestNewEndpointValidation(t *testing.T) {
	if _, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("missing OnMessage accepted")
	}
	if _, err := NewEndpoint(Config{OnMessage: func(From, []byte) {}}); err == nil {
		t.Fatal("missing ListenAddr accepted")
	}
	_, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		OnMessage:  func(From, []byte) {},
		Protocols:  []wire.Transport{wire.DATA},
	})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("DATA listener accepted: %v", err)
	}
}

func TestSendReceiveEachProtocol(t *testing.T) {
	for _, proto := range []wire.Transport{wire.TCP, wire.UDP, wire.UDT} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			a, b, _, cb := newEndpointPair(t)
			_ = a
			want := "hello over " + proto.String()
			done := make(chan error, 1)
			a.Send(proto, b.Addr(proto), pooled(want), func(err error) { done <- err })
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("notify error: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no send notification")
			}
			waitCount(t, cb, 1)
			if !bytes.Equal(cb.all()[0], []byte(want)) {
				t.Fatalf("received %q", cb.all()[0])
			}
		})
	}
}

func TestManyMessagesKeepOrderOnStreams(t *testing.T) {
	for _, proto := range []wire.Transport{wire.TCP, wire.UDT} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			a, b, _, cb := newEndpointPair(t)
			const n = 200
			for i := 0; i < n; i++ {
				a.Send(proto, b.Addr(proto), pooled(fmt.Sprintf("msg-%04d", i)), nil)
			}
			waitCount(t, cb, n)
			for i, m := range cb.all() {
				if want := fmt.Sprintf("msg-%04d", i); string(m) != want {
					t.Fatalf("message %d = %q, want %q (FIFO per channel)", i, m, want)
				}
			}
		})
	}
}

func TestChannelReuse(t *testing.T) {
	a, b, _, cb := newEndpointPair(t)
	for i := 0; i < 5; i++ {
		a.Send(wire.TCP, b.Addr(wire.TCP), pooled(string(rune(i))), nil)
	}
	waitCount(t, cb, 5)
	if nchan := a.QueueStats().Channels; nchan != 1 {
		t.Fatalf("5 sends created %d channels, want 1", nchan)
	}
}

func TestNotifyFailureOnDeadDestination(t *testing.T) {
	a, _, _, _ := newEndpointPair(t)
	done := make(chan error, 1)
	// TCP dial to a port that is not listening fails fast on loopback.
	a.Send(wire.TCP, "127.0.0.1:1", pooled("x"), func(err error) { done <- err })
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send to dead port notified success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no failure notification")
	}
}

func TestRedialAfterFailure(t *testing.T) {
	// After a failed dial the channel is dropped; a later send to a live
	// destination on the same key must work... here we emulate by first
	// sending to b's port after closing b, then restarting a fresh
	// endpoint on a new port.
	a, b, _, cb := newEndpointPair(t)
	addr := b.Addr(wire.TCP)
	b.Close()

	failed := make(chan error, 1)
	a.Send(wire.TCP, addr, pooled("x"), func(err error) { failed <- err })
	select {
	case <-failed:
	case <-time.After(10 * time.Second):
		t.Fatal("no notification for send to closed endpoint")
	}
	_ = cb

	// New destination endpoint; the channel registry must not be
	// poisoned for other keys.
	c2 := &collector{}
	ep2, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: c2.onMessage})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep2.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep2.Close()
	ok := make(chan error, 1)
	a.Send(wire.TCP, ep2.Addr(wire.TCP), pooled("y"), func(err error) { ok <- err })
	select {
	case err := <-ok:
		if err != nil {
			t.Fatalf("send after prior failure: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification")
	}
	waitCount(t, c2, 1)
}

func TestOversizePayloadRejected(t *testing.T) {
	a, b, _, _ := newEndpointPair(t)
	big := bufpool.Get(a.cfg.MaxFrame + 1)
	done := make(chan error, 1)
	a.Send(wire.TCP, b.Addr(wire.TCP), big, func(err error) { done <- err })
	if err := <-done; !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}

	udpBig := bufpool.Get(maxUDPPayload + 1)
	a.Send(wire.UDP, b.Addr(wire.UDP), udpBig, func(err error) { done <- err })
	if err := <-done; !errors.Is(err, ErrTooLarge) {
		t.Fatalf("udp err = %v, want ErrTooLarge", err)
	}
}

func TestSendUnsupportedProtocol(t *testing.T) {
	a, b, _, _ := newEndpointPair(t)
	done := make(chan error, 1)
	a.Send(wire.DATA, b.Addr(wire.TCP), pooled("x"), func(err error) { done <- err })
	if err := <-done; !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	a, b, _, _ := newEndpointPair(t)
	addr := b.Addr(wire.TCP)
	a.Close()
	a.Close() // idempotent
	done := make(chan error, 1)
	a.Send(wire.TCP, addr, pooled("x"), func(err error) { done <- err })
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b, _, cb := newEndpointPair(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Send(wire.TCP, b.Addr(wire.TCP), pooled("m"), nil)
			}
		}()
	}
	wg.Wait()
	waitCount(t, cb, workers*per)
}

func TestBidirectionalTraffic(t *testing.T) {
	a, b, ca, cb := newEndpointPair(t)
	a.Send(wire.TCP, b.Addr(wire.TCP), pooled("a->b"), nil)
	b.Send(wire.TCP, a.Addr(wire.TCP), pooled("b->a"), nil)
	waitCount(t, cb, 1)
	waitCount(t, ca, 1)
}

func TestAddrForDisabledProtocol(t *testing.T) {
	col := &collector{}
	ep, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{wire.TCP},
		OnMessage:  col.onMessage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if ep.Addr(wire.UDP) != "" || ep.Addr(wire.UDT) != "" {
		t.Fatal("disabled protocols report addresses")
	}
	if ep.Addr(wire.TCP) == "" {
		t.Fatal("enabled protocol reports no address")
	}
}
