package udt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

func TestZeroLengthWrite(t *testing.T) {
	client, _, cleanup := pair(t, Config{})
	defer cleanup()
	n, err := client.Write(nil)
	if n != 0 || err != nil {
		t.Fatalf("Write(nil) = %d, %v", n, err)
	}
}

func TestDoubleCloseAndReadAfterClose(t *testing.T) {
	client, server, cleanup := pair(t, Config{})
	defer cleanup()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	buf := make([]byte, 8)
	if _, err := client.Read(buf); err != ErrClosed {
		t.Fatalf("Read after Close = %v, want ErrClosed", err)
	}
	if _, err := client.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	_ = server
}

// lingerPair is a pair whose data packets all vanish before the socket and
// whose Close lingers 100 ms, with 64 KiB written by the client: every
// byte stays unacknowledged until the linger expires.
func lingerPair(t *testing.T) (client *Conn, cleanup func()) {
	t.Helper()
	setLossHook(t, func() bool { return true })
	client, _, cleanup = pair(t, Config{LingerTimeout: 100 * time.Millisecond})
	if _, err := client.Write(make([]byte, 64<<10)); err != nil {
		cleanup()
		t.Fatal(err)
	}
	return client, cleanup
}

// TestCloseReportsExpiredLinger: a linger that expires with data still
// unacknowledged frees that data, but Close says how many bytes it lost.
func TestCloseReportsExpiredLinger(t *testing.T) {
	client, cleanup := lingerPair(t)
	defer cleanup()
	err := client.Close()
	if !errors.Is(err, ErrLingerExpired) {
		t.Fatalf("Close = %v, want ErrLingerExpired", err)
	}
	if want := "65536 bytes undelivered"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Close = %q, want it to name %q", err, want)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestConcurrentCloseDuringLinger: a second Close while the first lingers
// waits for it and returns nil; running the teardown twice would close
// c.done twice and panic.
func TestConcurrentCloseDuringLinger(t *testing.T) {
	client, cleanup := lingerPair(t)
	defer cleanup()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- client.Close() }()
	}
	expired := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			switch {
			case errors.Is(err, ErrLingerExpired):
				expired++
			case err != nil:
				t.Fatalf("Close = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a concurrent Close never returned")
		}
	}
	if expired != 1 {
		t.Fatalf("%d Close calls reported the expired linger, want 1", expired)
	}
}

func TestWriteDeadlineOnFullQueue(t *testing.T) {
	// A tiny send queue plus a tiny rate fills quickly; writes must then
	// time out rather than hang.
	client, _, cleanup := pair(t, Config{
		SndQueue: 4 << 10,
		MaxRate:  minRate,
	})
	defer cleanup()
	client.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	big := make([]byte, 1<<20)
	_, err := client.Write(big)
	if err != ErrTimeout {
		t.Fatalf("Write on a full queue = %v, want ErrTimeout", err)
	}
}

func TestBidirectionalSimultaneousTransfer(t *testing.T) {
	client, server, cleanup := pair(t, Config{})
	defer cleanup()

	const size = 1 << 20
	up := make([]byte, size)
	down := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(up)
	rand.New(rand.NewSource(2)).Read(down)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); client.Write(up) }()
	go func() { defer wg.Done(); server.Write(down) }()

	gotUp := make([]byte, size)
	gotDown := make([]byte, size)
	var rg sync.WaitGroup
	rg.Add(2)
	var errUp, errDown error
	go func() {
		defer rg.Done()
		server.SetReadDeadline(time.Now().Add(60 * time.Second))
		_, errUp = io.ReadFull(server, gotUp)
	}()
	go func() {
		defer rg.Done()
		client.SetReadDeadline(time.Now().Add(60 * time.Second))
		_, errDown = io.ReadFull(client, gotDown)
	}()
	wg.Wait()
	rg.Wait()
	if errUp != nil || errDown != nil {
		t.Fatalf("reads failed: %v / %v", errUp, errDown)
	}
	if !bytes.Equal(gotUp, up) || !bytes.Equal(gotDown, down) {
		t.Fatal("bidirectional streams corrupted each other")
	}
}

func TestHeavyBidirectionalLoss(t *testing.T) {
	// 10% loss in both directions (data AND control packets are all
	// subject to the injector on the data path; ACK/NAK losses are
	// covered by the EXP timer): integrity must survive.
	rng := rand.New(rand.NewSource(4))
	var mu sync.Mutex
	setLossHook(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < 0.10
	})
	transferAndVerify(t, Config{}, 512<<10)
}

func TestListenerCloseFailsActiveConns(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c.(*Conn)
		}
	}()
	client, err := Dial(l.Addr().String(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted

	l.Close()
	// The server-side conn was closed by the listener; reads on it fail.
	buf := make([]byte, 8)
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := server.Read(buf); err == nil {
		t.Fatal("read on a closed listener's conn succeeded")
	}
}

func TestStatsAccessors(t *testing.T) {
	client, _, cleanup := pair(t, Config{})
	defer cleanup()
	if r, n := client.Stats(); r != 0 || n != 0 {
		t.Fatalf("fresh conn stats = %d, %d", r, n)
	}
	if client.Rate() <= 0 {
		t.Fatal("rate not positive")
	}
}

// TestPeerDeathFailsIOAndReleasesBuffers blackholes every data packet
// mid-stream: after PeerDeathEXPs consecutive EXP expirations with zero
// ACK progress the peer is declared dead — a blocked Read fails with
// ErrPeerDead without any deadline, Write fails likewise, and every
// pooled station buffer (send queue and in-flight window) is back in
// the pool immediately, not at some eventual Close.
func TestPeerDeathFailsIOAndReleasesBuffers(t *testing.T) {
	bufpool.ResetStats()
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)

	var blackhole atomic.Bool
	setLossHook(t, blackhole.Load)
	client, server, cleanup := pair(t, Config{
		PeerDeathEXPs: 2, // two silent retransmission rounds suffice here
	})
	defer cleanup()

	// Healthy exchange first: ACK progress must keep the death counter
	// at zero.
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	server.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}

	// The peer "vanishes": every outgoing data packet — fresh or
	// retransmitted — is dropped before the socket, so the in-flight
	// window can never be acknowledged again.
	blackhole.Store(true)
	if _, err := client.Write(make([]byte, 256<<10)); err != nil {
		t.Fatalf("write into the send queue: %v", err)
	}

	// This Read blocks with no deadline; only the EXP timer's death
	// verdict can release it.
	if _, err := client.Read(buf); err != ErrPeerDead {
		t.Fatalf("Read during peer death = %v, want ErrPeerDead", err)
	}
	if _, err := client.Write([]byte("x")); err != ErrPeerDead {
		t.Fatalf("Write after peer death = %v, want ErrPeerDead", err)
	}

	// Death released every pooled buffer the pair owned.
	if n := bufpool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffer(s) outstanding after peer death", n)
	}
}

func TestFlowControlStallsWhenReceiverStopsReading(t *testing.T) {
	// A receiver that never reads advertises a shrinking window; the
	// sender must stall rather than overrun the receive buffer. We use a
	// tiny receive buffer so the limit is reached quickly.
	client, server, cleanup := pair(t, Config{
		RcvBuffer: 64, // packets
		MaxRate:   50 << 20,
	})
	defer cleanup()

	// Push far more than the receive window without reading.
	go client.Write(make([]byte, 4<<20))
	time.Sleep(500 * time.Millisecond)

	client.mu.Lock()
	inflight := int(int32(client.sndNextSeq - client.sndFirstUnack))
	client.mu.Unlock()
	// Allow slack for packets in flight when the window snapshot was
	// taken, but the sender must not run away unbounded.
	if inflight > 3*64 {
		t.Fatalf("sender has %d packets in flight against a 64-packet window", inflight)
	}

	// Draining the receiver must release the stall and deliver all data.
	buf := make([]byte, 64<<10)
	total := 0
	server.SetReadDeadline(time.Now().Add(30 * time.Second))
	for total < 4<<20 {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatalf("read after drain: %v (got %d bytes)", err, total)
		}
		total += n
	}
}
