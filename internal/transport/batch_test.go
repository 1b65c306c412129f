package transport

// Tests for the outChannel write-coalescing semantics: one socket write
// per drained batch, per-message notify ordering, mid-batch failure
// attribution, and queue drain on close.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// countingWriter records every Write call, standing in for a socket so
// the test can count syscalls.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
	// limit, when > 0, accepts only that many bytes in total and then
	// fails with errSocket (a short write).
	limit int
}

var errSocket = errors.New("socket failed")

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.limit > 0 && w.buf.Len()+len(p) > w.limit {
		n := w.limit - w.buf.Len()
		w.buf.Write(p[:n])
		return n, errSocket
	}
	w.buf.Write(p)
	return len(p), nil
}

func batchOf(payloads ...string) []outMsg {
	batch := make([]outMsg, len(payloads))
	for i, p := range payloads {
		batch[i] = outMsg{payload: []byte(p)}
	}
	return batch
}

func TestWriteCoalescedSingleWritePerBatch(t *testing.T) {
	w := &countingWriter{}
	batch := batchOf("alpha", "bravo", "charlie", "delta")
	sent, err := writeCoalesced(w, batch)
	if err != nil {
		t.Fatalf("writeCoalesced: %v", err)
	}
	if sent != len(batch) {
		t.Fatalf("sent = %d, want %d", sent, len(batch))
	}
	if w.writes != 1 {
		t.Fatalf("writes = %d, want 1 per drained batch", w.writes)
	}
	// The coalesced bytes must still parse as individual frames in order.
	r := bytes.NewReader(w.buf.Bytes())
	for i, m := range batch {
		got, err := codec.ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, m.payload) {
			t.Fatalf("frame %d = %q, want %q", i, got, m.payload)
		}
	}
	if _, err := codec.ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("trailing bytes after batch: err = %v", err)
	}
}

func TestWriteCoalescedSplitsOversizedBatch(t *testing.T) {
	// Three payloads of 100 kB against the 256 kB coalescing cap must go
	// out as two writes (200 kB + 100 kB), all messages sent.
	big := string(bytes.Repeat([]byte{0xCD}, 100<<10))
	w := &countingWriter{}
	sent, err := writeCoalesced(w, batchOf(big, big, big))
	if err != nil {
		t.Fatalf("writeCoalesced: %v", err)
	}
	if sent != 3 {
		t.Fatalf("sent = %d, want 3", sent)
	}
	if w.writes != 2 {
		t.Fatalf("writes = %d, want 2 for 300 kB over a 256 kB cap", w.writes)
	}
}

func TestWriteCoalescedMidBatchFailure(t *testing.T) {
	// The writer accepts the first two frames and part of the third:
	// exactly the fully-flushed prefix counts as sent.
	batch := batchOf("first", "second", "third", "fourth")
	frameLen := func(i int) int { return codec.FrameHeaderLen + len(batch[i].payload) }
	w := &countingWriter{limit: frameLen(0) + frameLen(1) + 3}
	sent, err := writeCoalesced(w, batch)
	if !errors.Is(err, errSocket) {
		t.Fatalf("err = %v, want socket failure", err)
	}
	if sent != 2 {
		t.Fatalf("sent = %d, want 2 (only the unsent tail fails)", sent)
	}
}

func TestWriteCoalescedFailureAtBatchStart(t *testing.T) {
	w := &countingWriter{limit: 1} // not even one header fits
	sent, err := writeCoalesced(w, batchOf("first", "second"))
	if !errors.Is(err, errSocket) {
		t.Fatalf("err = %v", err)
	}
	if sent != 0 {
		t.Fatalf("sent = %d, want 0", sent)
	}
}

// TestBatchNotifyOrderingLoopback sends a burst through a real TCP
// loopback channel and checks every notification fires, in send order,
// even as the run loop coalesces the queue into batches.
func TestBatchNotifyOrderingLoopback(t *testing.T) {
	recv := newTestEndpoint(t, wire.TCP)
	send := newTestEndpoint(t, wire.TCP)
	dest := recv.Addr(wire.TCP)

	const total = 500
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	for i := 0; i < total; i++ {
		i := i
		send.Send(wire.TCP, dest, []byte(fmt.Sprintf("m-%04d", i)), func(err error) {
			if err != nil {
				t.Errorf("send %d: %v", i, err)
			}
			mu.Lock()
			order = append(order, i)
			if len(order) == total {
				close(done)
			}
			mu.Unlock()
		})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for notifications")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("notification %d fired for message %d: order not preserved", i, got)
		}
	}
}

// TestOutChannelDrainOnClose checks that every queued message is failed
// with the closing error, and that sends after close fail immediately.
func TestOutChannelDrainOnClose(t *testing.T) {
	ep, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: func(From, []byte) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := newOutChannel(ep, chanKey{proto: wire.TCP, dest: "127.0.0.1:1"})

	var mu sync.Mutex
	var errs []error
	note := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	// No run goroutine: messages stay queued, as they would while a dial
	// is still in flight.
	for i := 0; i < 3; i++ {
		c.enqueue(outMsg{payload: []byte("queued"), notify: note})
	}
	c.close(ErrClosed)
	c.enqueue(outMsg{payload: []byte("late"), notify: note})

	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 4 {
		t.Fatalf("notified %d messages, want 4", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("message %d failed with %v, want ErrClosed", i, err)
		}
	}
}

// newTestEndpoint builds and starts a single-protocol endpoint that
// discards inbound messages, closing it on test cleanup.
func newTestEndpoint(t *testing.T, proto wire.Transport) *Endpoint {
	t.Helper()
	ep, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{proto},
		OnMessage:  func(From, []byte) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep
}
