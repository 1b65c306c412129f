package udt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// --- packet codecs -------------------------------------------------------------

func TestDataPacketRoundTrip(t *testing.T) {
	buf := make([]byte, 0, dataHeaderLen+mssPayload)
	payload := []byte("hello udt")
	pkt := encodeData(buf, 42, payload)
	seq, got, err := decodeData(pkt)
	if err != nil || seq != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("decodeData = %d, %q, %v", seq, got, err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	pkt := encodeHandshake(ctlHandshake, 7, 8192)
	seq, win, err := decodeHandshake(pkt)
	if err != nil || seq != 7 || win != 8192 {
		t.Fatalf("decodeHandshake = %d, %d, %v", seq, win, err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	pkt := encodeAck(99, 512)
	seq, win, err := decodeAck(pkt)
	if err != nil || seq != 99 || win != 512 {
		t.Fatalf("decodeAck = %d, %d, %v", seq, win, err)
	}
}

func TestNakRoundTrip(t *testing.T) {
	in := []nakRange{{from: 5, to: 9}, {from: 20, to: 20}}
	got, err := decodeNak(encodeNak(in))
	if err != nil || len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("decodeNak = %v, %v", got, err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, _, err := decodeData([]byte{0}); err == nil {
		t.Error("short data packet accepted")
	}
	if _, _, err := decodeHandshake([]byte{ctlHandshake, 1}); err == nil {
		t.Error("short handshake accepted")
	}
	if _, _, err := decodeAck([]byte{ctlAck}); err == nil {
		t.Error("short ack accepted")
	}
	if _, err := decodeNak([]byte{ctlNak, 0, 2, 1}); err == nil {
		t.Error("truncated nak accepted")
	}
	inverted := encodeNak([]nakRange{{from: 9, to: 5}})
	if _, err := decodeNak(inverted); err == nil {
		t.Error("inverted nak range accepted")
	}
}

func TestSeqCompare(t *testing.T) {
	tests := []struct {
		a, b      uint32
		less, leq bool
	}{
		{1, 2, true, true},
		{2, 1, false, false},
		{5, 5, false, true},
		{^uint32(0), 0, true, true}, // wraparound
	}
	for _, tt := range tests {
		if seqLess(tt.a, tt.b) != tt.less {
			t.Errorf("seqLess(%d,%d) != %v", tt.a, tt.b, tt.less)
		}
		if seqLeq(tt.a, tt.b) != tt.leq {
			t.Errorf("seqLeq(%d,%d) != %v", tt.a, tt.b, tt.leq)
		}
	}
}

// --- end-to-end ----------------------------------------------------------------

// encodeData renders a data packet into buf and returns the slice, the
// way sendBurst encodes each packet of a burst.
func encodeData(buf []byte, seq uint32, payload []byte) []byte {
	buf = buf[:0]
	buf = append(buf, pktData)
	buf = binary.BigEndian.AppendUint32(buf, seq)
	buf = append(buf, payload...)
	return buf
}

// setLossHook installs drop as the loss hook for the rest of the test:
// every outgoing data packet it returns true for vanishes before the
// socket.
func setLossHook(t testing.TB, drop func() bool) {
	lossHook.Store(&drop)
	t.Cleanup(func() { lossHook.Store(nil) })
}

// pair establishes a client/server connection over loopback.
func pair(t testing.TB, cfg Config) (client *Conn, server net.Conn, cleanup func()) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errs <- err
			return
		}
		accepted <- c
	}()
	client, err = Dial(l.Addr().String(), cfg)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	select {
	case server = <-accepted:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	return client, server, func() {
		client.Close()
		server.Close()
		l.Close()
	}
}

func TestEchoSmallMessage(t *testing.T) {
	client, server, cleanup := pair(t, Config{})
	defer cleanup()

	msg := []byte("ping over udt")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("server received %q", buf)
	}

	// And the reverse direction.
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 4)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, reply); err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong" {
		t.Fatalf("client received %q", reply)
	}
}

// transferAndVerify streams size random bytes client→server and checks
// integrity by hash.
func transferAndVerify(t *testing.T, cfg Config, size int) {
	t.Helper()
	client, server, cleanup := pair(t, cfg)
	defer cleanup()

	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)
	wantSum := sha256.Sum256(data)

	var wg sync.WaitGroup
	wg.Add(1)
	var writeErr error
	go func() {
		defer wg.Done()
		_, writeErr = client.Write(data)
	}()

	h := sha256.New()
	server.SetReadDeadline(time.Now().Add(60 * time.Second))
	got, err := io.CopyN(h, server, int64(size))
	if err != nil {
		t.Fatalf("read %d of %d bytes: %v", got, size, err)
	}
	wg.Wait()
	if writeErr != nil {
		t.Fatalf("write: %v", writeErr)
	}
	var gotSum [32]byte
	copy(gotSum[:], h.Sum(nil))
	if gotSum != wantSum {
		t.Fatal("transferred data corrupted")
	}
}

func TestBulkTransferClean(t *testing.T) {
	transferAndVerify(t, Config{MaxRate: 200 << 20}, 4<<20)
}

func TestBulkTransferWithLoss(t *testing.T) {
	// 2% injected loss exercises NAK + retransmission heavily while the
	// stream must still arrive intact and in order.
	rng := rand.New(rand.NewSource(99))
	var mu sync.Mutex
	setLossHook(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < 0.02
	})
	transferAndVerify(t, Config{}, 2<<20)
}

// BenchmarkUDTBulkTransfer measures a sustained large transfer: each op
// streams 8 MiB client→server over loopback and waits for the server's
// one-byte receipt, so the time includes retransmission, ACK cadence and
// receive-side reassembly (the §V-C bulk-data path).
func BenchmarkUDTBulkTransfer(b *testing.B) {
	const size = 8 << 20
	client, server, cleanup := pair(b, Config{MaxRate: 1 << 30})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256<<10)
		for {
			for left := size; left > 0; {
				n, err := server.Read(buf)
				if err != nil {
					return
				}
				left -= n
			}
			if _, err := server.Write(buf[:1]); err != nil {
				return
			}
		}
	}()
	defer func() {
		cleanup()
		<-done
	}()

	chunk := make([]byte, 256<<10)
	receipt := make([]byte, 1)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for sent := 0; sent < size; sent += len(chunk) {
			if _, err := client.Write(chunk); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := io.ReadFull(client, receipt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

func TestLossTriggersNaksAndRetransmits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var mu sync.Mutex
	setLossHook(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < 0.05
	})
	client, server, cleanup := pair(t, Config{})
	defer cleanup()

	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(data)
	go client.Write(data)
	buf := make([]byte, len(data))
	server.SetReadDeadline(time.Now().Add(60 * time.Second))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	retransmits, _ := client.Stats()
	if retransmits == 0 {
		t.Fatal("5% loss produced zero retransmissions")
	}
	_, naks := server.(*Conn).Stats()
	if naks == 0 {
		t.Fatal("5% loss produced zero NAKs at the receiver")
	}
}

func TestRateIncreasesUnderCleanTransfer(t *testing.T) {
	client, server, cleanup := pair(t, Config{})
	defer cleanup()
	before := client.Rate()
	data := make([]byte, 2<<20)
	go client.Write(data)
	buf := make([]byte, len(data))
	server.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if after := client.Rate(); after <= before {
		t.Fatalf("DAIMD rate did not grow: %v → %v", before, after)
	}
}

func TestMaxRateRespected(t *testing.T) {
	client, server, cleanup := pair(t, Config{MaxRate: 2 << 20})
	defer cleanup()
	data := make([]byte, 1<<20)
	go client.Write(data)
	buf := make([]byte, len(data))
	server.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if r := client.Rate(); r > 2<<20 {
		t.Fatalf("rate %v exceeds MaxRate", r)
	}
}

func TestCloseDeliversEOFAfterDrain(t *testing.T) {
	client, server, cleanup := pair(t, Config{})
	defer cleanup()
	msg := []byte("last words")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	client.Close()

	server.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q before EOF, want %q", got, msg)
	}
}

func TestWriteAfterPeerClose(t *testing.T) {
	client, server, cleanup := pair(t, Config{})
	defer cleanup()
	client.Close()
	time.Sleep(100 * time.Millisecond) // let the shutdown packet land
	if _, err := server.Write(bytes.Repeat([]byte("x"), 1<<20)); err == nil {
		// A small write may still be buffered; a large one must
		// eventually fail once the queue fills with no drain. Either an
		// immediate error or ErrClosed here is acceptable; total silence
		// is not, but Write into a dead peer with space left succeeds by
		// design (fire and forget below the middleware).
		t.Log("write into closed peer buffered silently (acceptable)")
	}
}

func TestReadDeadline(t *testing.T) {
	client, _, cleanup := pair(t, Config{})
	defer cleanup()
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 10)
	_, err := client.Read(buf)
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("Read error = %v, want timeout net.Error", err)
	}
}

func TestDialTimeout(t *testing.T) {
	// Dial a port nobody listens on: handshake must time out.
	start := time.Now()
	_, err := Dial("127.0.0.1:1", Config{HandshakeTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial succeeded against a dead port")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("handshake timeout not honoured")
	}
}

func TestListenerRejectsBadAddress(t *testing.T) {
	if _, err := Listen("999.1.1.1:0", Config{}); err == nil {
		t.Fatal("Listen accepted an invalid address")
	}
	if _, err := Dial("999.1.1.1:0", Config{}); err == nil {
		t.Fatal("Dial accepted an invalid address")
	}
}

func TestMultipleConnectionsOneListener(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 4
	serverGot := make(chan string, n)
	go func() {
		for i := 0; i < n; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 64)
				c.SetReadDeadline(time.Now().Add(10 * time.Second))
				k, err := c.Read(buf)
				if err == nil {
					serverGot <- string(buf[:k])
				}
			}(c)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(l.Addr().String(), Config{})
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer c.Close()
			c.Write([]byte{byte('a' + i)})
			time.Sleep(200 * time.Millisecond) // let it flush before close
		}(i)
	}
	wg.Wait()

	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		select {
		case s := <-serverGot:
			seen[s] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d messages arrived", len(seen), n)
		}
	}
	if len(seen) != n {
		t.Fatalf("distinct messages = %d, want %d", len(seen), n)
	}
}

// connGoroutines counts the live goroutines connections started: those
// created by (*Conn).start or by Client. Unlike runtime.NumGoroutine it
// does not count goroutines an earlier test left winding down.
func connGoroutines() int {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	const by = "created by github.com/kompics/kompicsmessaging-go/internal/udt."
	return bytes.Count(buf, []byte(by+"(*Conn).start")) + bytes.Count(buf, []byte(by+"Client"))
}

// TestGoroutinesPerConnection pins the goroutines a connection costs: a
// dialed Conn runs its socket's read loop and its control loop, an
// accepted one only its control loop (the listener's read loop serves
// every accepted Conn).
func TestGoroutinesPerConnection(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 8
	base := connGoroutines()
	for i := 0; i < n; i++ {
		c, err := Dial(l.Addr().String(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
	}
	if got := connGoroutines() - base; got != 3*n {
		t.Fatalf("%d connection pairs run %d goroutines, want %d (3 per pair)", n, got, 3*n)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
}

func TestConnAddrs(t *testing.T) {
	client, server, cleanup := pair(t, Config{})
	defer cleanup()
	if client.LocalAddr() == nil || client.RemoteAddr() == nil {
		t.Fatal("client addrs nil")
	}
	if server.LocalAddr() == nil || server.RemoteAddr() == nil {
		t.Fatal("server addrs nil")
	}
	if client.RemoteAddr().String() != server.LocalAddr().String() {
		// The server's local addr is the listening socket; the client's
		// remote addr points at it.
		t.Fatalf("addr mismatch: %v vs %v", client.RemoteAddr(), server.LocalAddr())
	}
}

func TestPropertyStreamIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("network property test")
	}
	// Arbitrary write sizes with injected loss always yield the exact
	// byte stream.
	cfgRng := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	setLossHook(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return cfgRng.Float64() < 0.01
	})
	client, server, cleanup := pair(t, Config{})
	defer cleanup()

	f := func(chunks [][]byte) bool {
		if len(chunks) > 16 {
			chunks = chunks[:16]
		}
		var want []byte
		for _, ch := range chunks {
			if len(ch) > 8192 {
				ch = ch[:8192]
			}
			want = append(want, ch...)
			if _, err := client.Write(ch); err != nil {
				return false
			}
		}
		if len(want) == 0 {
			return true
		}
		got := make([]byte, len(want))
		server.SetReadDeadline(time.Now().Add(30 * time.Second))
		if _, err := io.ReadFull(server, got); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
