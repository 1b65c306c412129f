package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// recordingHandler captures the attributes of every record whose message
// is msg (every record when msg is empty).
type recordingHandler struct {
	msg     string
	mu      sync.Mutex
	records []map[string]any
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	if h.msg != "" && r.Message != h.msg {
		return nil
	}
	attrs := map[string]any{}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.Any()
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, attrs)
	h.mu.Unlock()
	return nil
}
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler      { return h }

func (h *recordingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records)
}

func (h *recordingHandler) last() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.records[len(h.records)-1]
}

// TestNotifyWarnRateLimit drives Network.notify directly on a virtual
// clock: a flood of unsendable fire-and-forget messages must produce at
// most warnBurst log lines, and the next line after the clock advances
// must carry the suppressed count.
func TestNotifyWarnRateLimit(t *testing.T) {
	vclk := clock.NewVirtual()
	h := &recordingHandler{}
	netDef, err := NewNetwork(NetworkConfig{
		Self:      MustParseAddress("127.0.0.1:9"),
		Logger:    slog.New(h),
		Transport: transport.Config{Clock: vclk},
	})
	if err != nil {
		t.Fatal(err)
	}

	failure := errors.New("peer unreachable")
	const flood = 500
	for i := 0; i < flood; i++ {
		netDef.notify(0, false, failure)
	}
	if got := h.count(); got != warnBurst {
		t.Fatalf("flood of %d produced %d warn lines, want %d", flood, got, warnBurst)
	}

	// One refill interval buys exactly one more line, which must report
	// everything swallowed during the flood.
	vclk.Advance(time.Second)
	netDef.notify(0, false, failure)
	if got := h.count(); got != warnBurst+1 {
		t.Fatalf("after refill got %d lines, want %d", got, warnBurst+1)
	}
	if sup, _ := h.last()["suppressed"].(int64); sup != flood-warnBurst {
		t.Fatalf("suppressed attr = %v, want %d", h.last()["suppressed"], flood-warnBurst)
	}

	// Successes and notify-requested failures never consume the logger.
	netDef.notify(0, false, nil)
	if got := h.count(); got != warnBurst+1 {
		t.Fatalf("nil error logged: %d lines", got)
	}
}

// TestInboundWarnRateLimit floods a node with undecodable frames from a
// raw TCP socket: the dropping-inbound-message warn must be throttled to
// warnBurst lines, the next line after the virtual clock advances must
// carry the suppressed count, the send-side bucket must be left untouched,
// and a well-formed frame on the same connection must still be delivered.
func TestInboundWarnRateLimit(t *testing.T) {
	vclk := clock.NewVirtual()
	h := &recordingHandler{msg: "core: dropping inbound message"}
	recv := startNodeConfig(t, NetworkConfig{
		Self:      MustParseAddress(fmt.Sprintf("127.0.0.1:%d", freePorts(t, 1)[0])),
		Protocols: []Transport{TCP},
		Logger:    slog.New(h),
		Transport: transport.Config{Clock: vclk},
	})
	conn, err := net.Dial("tcp", recv.net.Addr(TCP))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// garbage is a raw wire payload naming a serializer no registry has.
	garbage := []byte{wireRaw, 0xff, 0xff, 0xff, 0x0f, 0xde, 0xad}
	good := func() []byte {
		p, err := recv.net.encode(&DataMsg{Hdr: NewHeader(recv.self, recv.self, TCP), Payload: []byte("ok")})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// sendFrames writes n garbage frames and then one good one; once the
	// good one is delivered, every garbage frame before it was decoded.
	delivered := 0
	sendFrames := func(n int) {
		var wire []byte
		for i := 0; i < n; i++ {
			wire = codec.AppendFrame(wire, garbage)
		}
		p := good()
		wire = codec.AppendFrame(wire, p)
		bufpool.Put(p)
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		delivered++
		waitFor(t, "the good frame behind the garbage", func() bool {
			return recv.app.receivedCount() == delivered
		})
	}

	const flood = 300
	sendFrames(flood)
	if got := h.count(); got != warnBurst {
		t.Fatalf("%d garbage frames produced %d warn lines, want %d", flood, got, warnBurst)
	}

	vclk.Advance(time.Second)
	sendFrames(1)
	if got := h.count(); got != warnBurst+1 {
		t.Fatalf("after refill got %d lines, want %d", got, warnBurst+1)
	}
	if sup, _ := h.last()["suppressed"].(int64); sup != flood-warnBurst {
		t.Fatalf("suppressed attr = %v, want %d", h.last()["suppressed"], flood-warnBurst)
	}
	// The send-side bucket is separate: it still has its full burst.
	if ok, _ := recv.net.sendWarn.Allow(); !ok {
		t.Fatal("inbound garbage drained the send-failure warn bucket")
	}
}
