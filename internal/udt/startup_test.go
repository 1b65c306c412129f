package udt

import (
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// queuePackets appends n three-byte packets to c's send queue.
func queuePackets(c *Conn, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.sndQueue = append(c.sndQueue, bufpool.Get(3))
		c.sndQueueBytes += 3
	}
}

// fillWindow sends until the send window or the queue is exhausted and
// reports the packets in flight. Its budget is finite, so it keeps
// sending after slow start ends.
func fillWindow(c *Conn) int {
	var batch sendBatch
	for c.sendBurst(&batch, 1<<30) > 0 {
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.sndNextSeq - c.sndFirstUnack)
}

// slowStartState snapshots the controller under the lock.
func slowStartState(c *Conn) (slowStart bool, cwnd int, rate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slowStart, c.cwnd, c.rate
}

// TestSlowStartWindowGrowsByAcked drives the sender socket-free: the first
// window is initialCwnd packets, every ACK grows it by exactly the packets
// it acknowledged, and it stops at MaxFlowWindow without ending slow start.
func TestSlowStartWindowGrowsByAcked(t *testing.T) {
	const flow = 100
	c := newLoopConn(t, Config{MaxFlowWindow: flow})
	queuePackets(c, 1000)

	if got := fillWindow(c); got != initialCwnd {
		t.Fatalf("first window sent %d packets, want %d", got, initialCwnd)
	}
	c.handleAck(encodeAck(10, 1000))
	if _, cwnd, _ := slowStartState(c); cwnd != initialCwnd+10 {
		t.Fatalf("cwnd after ACKing 10 = %d, want %d", cwnd, initialCwnd+10)
	}
	if got := fillWindow(c); got != initialCwnd+10 {
		t.Fatalf("in flight after refill = %d, want %d", got, initialCwnd+10)
	}
	for i := 0; i < 4; i++ {
		c.mu.Lock()
		next := c.sndNextSeq
		c.mu.Unlock()
		c.handleAck(encodeAck(next, 1000))
		fillWindow(c)
	}
	slow, cwnd, _ := slowStartState(c)
	if cwnd != flow {
		t.Fatalf("cwnd = %d after ACKing well past the flow window, want %d", cwnd, flow)
	}
	if !slow {
		t.Fatal("reaching the flow window ended slow start")
	}
	if got := fillWindow(c); got != flow {
		t.Fatalf("in flight at the cap = %d, want %d", got, flow)
	}
}

// TestSlowStartAckBeyondSentGrowsOnlyBySent: an ACK past sndNextSeq is
// clamped before it grows the window, so a hostile peer cannot inflate it.
func TestSlowStartAckBeyondSentGrowsOnlyBySent(t *testing.T) {
	c := newLoopConn(t, Config{})
	queuePackets(c, 5)
	if got := fillWindow(c); got != 5 {
		t.Fatalf("sent %d packets, want 5", got)
	}
	c.handleAck(encodeAck(1<<30, 1000))
	if _, cwnd, _ := slowStartState(c); cwnd != initialCwnd+5 {
		t.Fatalf("cwnd after a hostile ACK = %d, want %d", cwnd, initialCwnd+5)
	}
}

// TestSlowStartEndsOnLoss: a NAK naming an in-flight packet, or an EXP
// expiry, ends slow start and seeds a pacing rate between minRate and the
// window's rate. A NAK naming nothing in flight is not a loss.
func TestSlowStartEndsOnLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		loss func(c *Conn)
	}{
		{"NAK", func(c *Conn) { c.handleNak(encodeNak([]nakRange{{from: 40, to: 41}})) }},
		{"EXP", func(c *Conn) {
			c.mu.Lock()
			c.expireLocked()
			c.mu.Unlock()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLoopConn(t, Config{})
			queuePackets(c, 200)
			fillWindow(c)
			c.handleAck(encodeAck(initialCwnd, 1000)) // cwnd 64
			fillWindow(c)

			c.handleNak(encodeNak([]nakRange{{from: 1 << 20, to: 1 << 21}}))
			if slow, _, _ := slowStartState(c); !slow {
				t.Fatal("a NAK outside the flight window ended slow start")
			}

			c.mu.Lock()
			ceiling := c.windowRate()
			c.mu.Unlock()
			tc.loss(c)
			slow, _, rate := slowStartState(c)
			if slow {
				t.Fatal("loss did not end slow start")
			}
			if rate < minRate || rate > ceiling {
				t.Fatalf("seeded rate %.0f outside [%d, %.0f]", rate, minRate, ceiling)
			}
			if r := c.Rate(); r != rate {
				t.Fatalf("Rate() = %.0f after slow start, want the pacing rate %.0f", r, rate)
			}
			c.mu.Lock()
			budget := c.tickBudget()
			c.mu.Unlock()
			if math.IsInf(budget, 1) {
				t.Fatal("sender still unpaced after slow start")
			}
			// A burst granted slow start's budget before the loss sends
			// nothing after it.
			var batch sendBatch
			if n := c.sendBurst(&batch, math.Inf(1)); n != 0 {
				t.Fatalf("unpaced burst of %d B after slow start ended", n)
			}
		})
	}
}

// TestSlowStartMaxRateCaps: MaxRate paces slow start and caps Rate() in
// both phases.
func TestSlowStartMaxRateCaps(t *testing.T) {
	const maxRate = 1 << 20
	c := newLoopConn(t, Config{MaxRate: maxRate})
	c.mu.Lock()
	budget := c.tickBudget()
	c.mu.Unlock()
	if want := maxRate * synInterval.Seconds(); budget != want {
		t.Fatalf("slow-start budget = %.0f, want MaxRate's %.0f", budget, want)
	}
	if r := c.Rate(); r != maxRate {
		t.Fatalf("slow-start Rate() = %.0f, want MaxRate %d", r, maxRate)
	}

	queuePackets(c, 100)
	fillWindow(c)
	c.handleNak(encodeNak([]nakRange{{from: 0, to: 0}}))
	for i := 0; i < 50; i++ {
		c.mu.Lock()
		next := c.sndFirstUnack + 1
		c.mu.Unlock()
		c.handleAck(encodeAck(next, 1000))
		fillWindow(c)
	}
	if r := c.Rate(); r > maxRate {
		t.Fatalf("Rate() = %.0f after DAIMD increase, above MaxRate %d", r, maxRate)
	}

	unlimited := newLoopConn(t, Config{})
	unlimited.mu.Lock()
	budget = unlimited.tickBudget()
	unlimited.mu.Unlock()
	if !math.IsInf(budget, 1) {
		t.Fatalf("slow start without MaxRate has a %.0f B budget", budget)
	}
}

// TestSlowStartFirst64KiB times the first 64 KiB on fresh loopback pairs:
// a window-clocked start-up delivers it within one SYN interval, where a
// rate-paced one needs several.
func TestSlowStartFirst64KiB(t *testing.T) {
	const size = 64 << 10
	data := make([]byte, size)
	buf := make([]byte, size)
	var took []time.Duration
	for i := 0; i < 5; i++ {
		client, server, cleanup := pair(t, Config{})
		server.SetReadDeadline(time.Now().Add(10 * time.Second))
		runtime.GC() // the previous pairs' garbage is not start-up's cost
		start := time.Now()
		if _, err := client.Write(data); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(server, buf); err != nil {
			t.Fatal(err)
		}
		took = append(took, time.Since(start))
		cleanup()
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	t.Logf("first 64 KiB: %v", took)
	if med := took[len(took)/2]; med >= synInterval {
		t.Fatalf("median time to the first 64 KiB %v, want under one SYN interval (%v)", med, synInterval)
	}
}

// ackProxy relays UDP between one client and a UDT listener. It records
// when each ACK from the listener's side reached the relay socket, by the
// kernel's receive stamp, and drops ACKs while drop is set.
type ackProxy struct {
	drop atomic.Bool

	mu   sync.Mutex
	acks []time.Time
}

// acksBetween counts the ACKs stamped in [from, to). The stamp is taken
// on arrival, so a relay goroutine that reads late does not move an ACK
// into a later window.
func (p *ackProxy) acksBetween(from, to time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, at := range p.acks {
		if !at.Before(from) && at.Before(to) {
			n++
		}
	}
	return n
}

// proxiedPair is pair with an ackProxy between client and server.
func proxiedPair(t *testing.T) (client *Conn, server *Conn, p *ackProxy) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	// front faces the client; back is connected to the listener.
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.DialUDP("udp", nil, l.Addr().(*net.UDPAddr))
	if err == nil {
		err = stampReads(back)
	}
	if err != nil {
		front.Close()
		t.Fatal(err)
	}
	p = &ackProxy{}
	var peer atomic.Pointer[net.UDPAddr]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, maxDatagram)
		for {
			n, addr, err := front.ReadFromUDP(buf)
			if err != nil {
				return
			}
			peer.Store(addr)
			_, _ = back.Write(buf[:n]) // UDP: a failed relay is a lost packet
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, maxDatagram)
		for {
			n, at, err := readStamped(back, buf)
			if err != nil {
				return
			}
			if n > 0 && buf[0] == ctlAck {
				p.mu.Lock()
				p.acks = append(p.acks, at)
				p.mu.Unlock()
				if p.drop.Load() {
					continue
				}
			}
			if addr := peer.Load(); addr != nil {
				_, _ = front.WriteToUDP(buf[:n], addr)
			}
		}
	}()
	t.Cleanup(func() {
		front.Close()
		back.Close()
		wg.Wait()
	})

	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	client, err = Dial(front.LocalAddr().String(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	select {
	case c := <-accepted:
		server = c.(*Conn)
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	return client, server, p
}

// TestSlowStartLightAcksStop: once start-up is over, a bulk transfer is
// acknowledged by the 10 ms timer alone.
func TestSlowStartLightAcksStop(t *testing.T) {
	client, server, p := proxiedPair(t)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		chunk := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.Write(chunk); err != nil {
				return
			}
		}
	}()
	go io.Copy(io.Discard, server)

	deadline := time.Now().Add(30 * time.Second)
	for {
		server.mu.Lock()
		left := server.lightAcksLeft
		server.mu.Unlock()
		if left <= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("start-up never ended: %d packets left", left)
		}
		time.Sleep(time.Millisecond)
	}

	server.mu.Lock()
	next0 := server.rcvNextSeq
	server.mu.Unlock()
	from := time.Now()
	time.Sleep(time.Second)
	to := time.Now()
	server.mu.Lock()
	pkts := int(server.rcvNextSeq - next0)
	server.mu.Unlock()
	time.Sleep(100 * time.Millisecond) // the relay reads the window's last ACKs
	acks := p.acksBetween(from, to)

	window := to.Sub(from)
	t.Logf("%d ACKs for %d packets in %v", acks, pkts, window)
	if pkts < 10*lightAckEvery {
		t.Fatalf("only %d packets arrived in %v; the check would be vacuous", pkts, window)
	}
	if limit := int(window/synInterval) + 2; acks > limit {
		t.Fatalf("%d ACKs in %v after start-up, the 10 ms timer allows %d", acks, window, limit)
	}
}

// TestLostLastAckAvoidsPeerDeath loses every ACK for the first 50 ms of
// a one-window write, whose last ACK is a light ACK. Everything arrived,
// so no later packet moves the receiver's frontier: only the EXP timer's
// retransmissions, arriving as duplicates, can make the receiver ACK
// again. If they did not, the sender would count EXPs until it declared
// the peer dead.
func TestLostLastAckAvoidsPeerDeath(t *testing.T) {
	client, server, p := proxiedPair(t)
	p.drop.Store(true)
	time.AfterFunc(50*time.Millisecond, func() { p.drop.Store(false) })
	data := make([]byte, lightAckEvery*mssPayload)
	if _, err := client.Write(data); err != nil {
		t.Fatal(err)
	}
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(server, make([]byte, len(data))); err != nil {
		t.Fatal(err)
	}

	// Peer death takes PeerDeathEXPs (20) rounds of 100 ms; the window
	// must be acknowledged well before.
	deadline := time.Now().Add(time.Second)
	for {
		client.mu.Lock()
		inflight, dead := client.sndUnacked.len(), client.dead
		client.mu.Unlock()
		if inflight == 0 && dead == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d packets still unacknowledged (dead=%v) 1 s after everything arrived", inflight, dead)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
