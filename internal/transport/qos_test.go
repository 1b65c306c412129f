package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/faults"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// TestQoSErrDroppedMessages pins the error contract: queue-pressure drops
// name the protocol and unwrap to ErrQueueFull; value/deadline sheds are
// distinct conditions and unwrap to nothing.
func TestQoSErrDroppedMessages(t *testing.T) {
	full := &ErrDropped{Reason: DropQueueFull, Class: wire.ClassControl, Proto: wire.UDT, Dest: "10.0.0.7:99", Limit: 64}
	if !errors.Is(full, ErrQueueFull) {
		t.Fatal("queue-full drop does not unwrap to ErrQueueFull")
	}
	for _, want := range []string{"UDT", "64", "10.0.0.7:99"} {
		if !strings.Contains(full.Error(), want) {
			t.Fatalf("queue-full message %q missing %q", full.Error(), want)
		}
	}

	coalesced := &ErrDropped{Reason: DropCoalesced, Class: wire.ClassTelemetry, Proto: wire.TCP, Dest: "d"}
	expired := &ErrDropped{Reason: DropExpired, Class: wire.ClassTelemetry, Proto: wire.TCP, Dest: "d"}
	for _, e := range []*ErrDropped{coalesced, expired} {
		if errors.Is(e, ErrQueueFull) {
			t.Fatalf("%v drop must not report queue pressure", e.Reason)
		}
		var de *ErrDropped
		if !errors.As(error(e), &de) || de.Reason != e.Reason {
			t.Fatalf("errors.As lost the drop reason for %v", e.Reason)
		}
	}
	if !strings.Contains(coalesced.Error(), "coalesced") || !strings.Contains(expired.Error(), "deadline") {
		t.Fatalf("drop messages not descriptive: %q / %q", coalesced.Error(), expired.Error())
	}
}

// qosMsg builds an unpooled outMsg carrying seq in its payload for the
// queue-level tests (the queue never releases, so no pooling needed).
func qosMsg(seq uint32, q wire.QoS) outMsg {
	p := make([]byte, 4)
	binary.BigEndian.PutUint32(p, seq)
	return outMsg{payload: p, qos: q}
}

func qosSeq(m outMsg) uint32 { return binary.BigEndian.Uint32(m.payload) }

// queueSeqs lists the seqs queued in p, in queue order.
func queueSeqs(p *pendingQueue) []uint32 {
	out := make([]uint32, len(p.msgs))
	for i, m := range p.msgs {
		out[i] = qosSeq(m)
	}
	return out
}

// TestQoSLatestValueDistinctKeysKeepOrder drives pendingQueue directly:
// coalescing replaces in place, so distinct keys keep their original
// relative order and the refreshed key keeps its slot.
func TestQoSLatestValueDistinctKeysKeepOrder(t *testing.T) {
	p := &pendingQueue{limit: 8}
	for i := uint32(0); i < 3; i++ {
		if d, ok := p.push(qosMsg(i, wire.QoS{Key: fmt.Sprintf("k%d", i)}), 0); !ok || len(d) != 0 {
			t.Fatalf("fresh key %d: ok=%v displaced=%d", i, ok, len(d))
		}
	}
	// Refresh k0: same slot, old message displaced as coalesced.
	d, ok := p.push(qosMsg(100, wire.QoS{Key: "k0"}), 0)
	if !ok || len(d) != 1 || d[0].reason != DropCoalesced || qosSeq(d[0].msg) != 0 {
		t.Fatalf("coalesce: ok=%v displaced=%+v", ok, d)
	}
	if got := fmt.Sprint(queueSeqs(p)); got != "[100 1 2]" {
		t.Fatalf("queue holds %s, want [100 1 2] (reordered)", got)
	}
	// Same key, different class: a distinct coalesce scope, appends.
	d, ok = p.push(qosMsg(200, wire.QoS{Class: wire.ClassControl, Key: "k0"}), 0)
	if !ok || len(d) != 0 || len(p.msgs) != 4 || qosSeq(p.msgs[3]) != 200 {
		t.Fatalf("cross-class push coalesced: ok=%v displaced=%d len=%d", ok, len(d), len(p.msgs))
	}
	// Keyless messages never coalesce.
	d, ok = p.push(qosMsg(300, wire.QoS{}), 0)
	if !ok || len(d) != 0 || len(p.msgs) != 5 {
		t.Fatalf("keyless push coalesced: ok=%v displaced=%d len=%d", ok, len(d), len(p.msgs))
	}
}

// TestQoSDeadlineBornDead checks that a message whose deadline already
// passed at enqueue is shed as DropExpired (through displaced, ok=true),
// not mischarged as queue pressure.
func TestQoSDeadlineBornDead(t *testing.T) {
	p := &pendingQueue{limit: 4}
	d, ok := p.push(qosMsg(1, wire.QoS{Deadline: 50}), 100)
	if !ok {
		t.Fatal("born-dead message charged as queue-full (ok=false)")
	}
	if len(p.msgs) != 0 || len(d) != 1 || d[0].reason != DropExpired || qosSeq(d[0].msg) != 1 {
		t.Fatalf("born-dead: queue=%d displaced=%+v", len(p.msgs), d)
	}
	// At the limit, expired slots are reclaimed before rejecting.
	for i := uint32(2); i < 6; i++ {
		p.push(qosMsg(i, wire.QoS{Deadline: 200}), 100)
	}
	if len(p.msgs) != 4 {
		t.Fatalf("queue length %d, want 4", len(p.msgs))
	}
	d, ok = p.push(qosMsg(9, wire.QoS{Deadline: 400}), 300) // all four queued expired at t=300
	if !ok || len(d) != 4 || len(p.msgs) != 1 || qosSeq(p.msgs[0]) != 9 {
		t.Fatalf("sweep-at-limit: ok=%v displaced=%d queue=%d", ok, len(d), len(p.msgs))
	}
	for _, dr := range d {
		if dr.reason != DropExpired {
			t.Fatalf("swept message charged %v, want expired", dr.reason)
		}
	}
}

// TestQoSSweepRebuildsKeyIndex sweeps a keyed, deadlined message out at
// the limit. The sweep compacts the queue, so the key index must follow
// the survivors: the next push with the swept key appends, and the push
// after that replaces that new slot.
func TestQoSSweepRebuildsKeyIndex(t *testing.T) {
	p := &pendingQueue{limit: 3}
	p.push(qosMsg(0, wire.QoS{Key: "k", Deadline: 100}), 50)
	p.push(qosMsg(1, wire.QoS{Deadline: 100}), 50)
	p.push(qosMsg(2, wire.QoS{Key: "j"}), 50)

	// Full at t=200: the sweep takes seqs 0 and 1 and makes room.
	if d, ok := p.push(qosMsg(3, wire.QoS{}), 200); !ok || len(d) != 2 {
		t.Fatalf("sweep at limit: ok=%v displaced=%+v", ok, d)
	}
	if d, ok := p.push(qosMsg(4, wire.QoS{Key: "k"}), 200); !ok || len(d) != 0 {
		t.Fatalf("swept key must append: ok=%v displaced=%+v", ok, d)
	}
	d, ok := p.push(qosMsg(5, wire.QoS{Key: "k"}), 200)
	if !ok || len(d) != 1 || d[0].reason != DropCoalesced || qosSeq(d[0].msg) != 4 {
		t.Fatalf("key must replace its new slot: ok=%v displaced=%+v", ok, d)
	}
	if got := fmt.Sprint(queueSeqs(p)); got != "[2 3 5]" {
		t.Fatalf("queue holds %s, want [2 3 5]", got)
	}
	if p.deadlines != 0 {
		t.Fatalf("deadline count %d after the sweep, want 0", p.deadlines)
	}
}

// TestQoSPerClassFIFOProperty is the randomized ordering property of the
// pending queue: simulate the channel's push/expire/drain cycle and
// assert (1) the queue never exceeds its bound, (2) every message is
// accounted exactly once — delivered or dropped, (3) delivery order is
// FIFO per (class, key), with "" for unkeyed messages, since coalescing
// re-fills a key's existing slot. Each subtest is named for the rule its
// traffic exercises; "mixed" sends keys and deadlines together.
func TestQoSPerClassFIFOProperty(t *testing.T) {
	for _, tc := range []struct {
		name             string
		keyed, deadlined bool
	}{
		{"reject", false, false},
		{"latest-value", true, false},
		{"deadline", false, true},
		{"mixed", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			const limit = 8
			p := &pendingQueue{limit: limit}
			now := int64(1_000)
			next := uint32(0)

			pushed := map[uint32]wire.QoS{}
			outcome := map[uint32]string{} // "delivered" or the drop reason
			var delivered []uint32

			account := func(seq uint32, what string) {
				if prev, dup := outcome[seq]; dup {
					t.Fatalf("seq %d accounted twice: %s then %s", seq, prev, what)
				}
				outcome[seq] = what
			}
			drops := func(ds []dropped) {
				for _, d := range ds {
					account(qosSeq(d.msg), d.reason.String())
				}
			}
			drain := func() {
				drops(p.expire(now))
				for _, m := range p.drain(nil) {
					seq := qosSeq(m)
					account(seq, "delivered")
					delivered = append(delivered, seq)
				}
			}

			for i := 0; i < 3_000; i++ {
				switch op := rng.Intn(10); {
				case op < 7: // push
					qos := wire.QoS{Class: wire.Class(rng.Intn(wire.NumClasses))}
					if tc.keyed && rng.Intn(2) == 0 {
						qos.Key = fmt.Sprintf("k%d", rng.Intn(4))
					}
					if tc.deadlined && rng.Intn(3) == 0 {
						qos.Deadline = now + int64(rng.Intn(200)) - 60
					}
					seq := next
					next++
					pushed[seq] = qos
					ds, ok := p.push(qosMsg(seq, qos), now)
					drops(ds)
					if !ok {
						account(seq, DropQueueFull.String())
					}
					if len(p.msgs) > limit {
						t.Fatalf("queue grew to %d, bound is %d", len(p.msgs), limit)
					}
				case op < 8: // time passes
					now += int64(rng.Intn(150))
				case op < 9: // dequeue-time expiry without a full drain
					drops(p.expire(now))
				default:
					drain()
				}
			}
			drain()

			for seq := range pushed {
				if _, ok := outcome[seq]; !ok {
					t.Fatalf("seq %d vanished: neither delivered nor dropped", seq)
				}
			}
			last := map[coalesceKey]uint32{}
			for _, seq := range delivered {
				scope := coalesceKey{class: pushed[seq].Class, key: pushed[seq].Key}
				if prev, seen := last[scope]; seen && seq <= prev {
					t.Fatalf("scope %+v delivered seq %d after %d (reordered)", scope, seq, prev)
				}
				last[scope] = seq
			}
		})
	}
}

// TestQoSLatestValueWinsEndToEnd is the acceptance scenario: an outage
// pins the channel while a telemetry workload keeps updating a handful of
// keys. The queue must shed by value — when the link comes back,
// exactly the freshest update per key reaches the peer, every stale one
// is notified as coalesced, the per-class counters match the notify
// accounting exactly, and no displaced payload leaks (leakCheck).
func TestQoSLatestValueWinsEndToEnd(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	refuseID := inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse})

	col := &collector{}
	recv, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: col.onMessage})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	send, err := NewEndpoint(Config{
		ListenAddr:        "127.0.0.1:0",
		OnMessage:         func(_ From, p []byte) { bufpool.Put(p) },
		Sockets:           inj.Wrap(NetSockets{}),
		MaxPendingPerPeer: 8,
		MaxDialAttempts:   1 << 20,
		RedialBackoff:     5 * time.Millisecond,
		RedialBackoffMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := send.Start(); err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	const keys, rounds = 4, 50
	dest := recv.Addr(wire.TCP)
	notifies := make(chan error, keys*rounds)
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			send.SendQoS(wire.TCP, dest, pooled(fmt.Sprintf("k%d=%d", k, r)),
				wire.QoS{Class: wire.ClassTelemetry, Key: fmt.Sprintf("k%d", k)},
				func(err error) { notifies <- err })
		}
	}
	inj.Remove(refuseID) // outage over; the backlog drains
	waitCount(t, col, keys)

	var deliveredN, coalescedN int
	for i := 0; i < keys*rounds; i++ {
		err := expectNotify(t, notifies)
		if err == nil {
			deliveredN++
			continue
		}
		var de *ErrDropped
		if !errors.As(err, &de) || de.Reason != DropCoalesced {
			t.Fatalf("notify %d: %v, want coalesced ErrDropped", i, err)
		}
		if errors.Is(err, ErrQueueFull) {
			t.Fatal("coalesced drop reported as queue pressure")
		}
		coalescedN++
	}
	if deliveredN != keys || coalescedN != keys*(rounds-1) {
		t.Fatalf("delivered=%d coalesced=%d, want %d and %d", deliveredN, coalescedN, keys, keys*(rounds-1))
	}

	// Freshest value per key, nothing else.
	got := map[string]bool{}
	for _, p := range col.all() {
		got[string(p)] = true
	}
	for k := 0; k < keys; k++ {
		want := fmt.Sprintf("k%d=%d", k, rounds-1)
		if !got[want] {
			t.Fatalf("freshest update %q not delivered; got %v", want, got)
		}
	}
	if len(got) != keys {
		t.Fatalf("delivered %d distinct payloads, want %d (stale values leaked through)", len(got), keys)
	}

	// Counters match the notify accounting exactly.
	ds := send.DropStats()
	if got := ds.PerClass[wire.ClassTelemetry].Coalesced; got != uint64(coalescedN) {
		t.Fatalf("telemetry coalesced counter = %d, notify accounting saw %d", got, coalescedN)
	}
	if total := ds.Sum(); total.Total() != uint64(coalescedN) || total.Coalesced != uint64(coalescedN) {
		t.Fatalf("drop totals %+v, want exactly %d coalesced", total, coalescedN)
	}
}

// TestQoSDeadlineExpiryReconnectDrain holds a channel down past a
// telemetry deadline: the first drain after the reconnect must shed the
// expired backlog (DropExpired, counted per class) and deliver only the
// messages without a lapsed deadline — in order.
func TestQoSDeadlineExpiryReconnectDrain(t *testing.T) {
	leakCheck(t)
	inj := faults.New(1)
	refuseID := inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse})

	col := &collector{}
	recv, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: col.onMessage})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	send, err := NewEndpoint(Config{
		ListenAddr:       "127.0.0.1:0",
		OnMessage:        func(_ From, p []byte) { bufpool.Put(p) },
		Sockets:          inj.Wrap(NetSockets{}),
		MaxDialAttempts:  1 << 20,
		RedialBackoff:    5 * time.Millisecond,
		RedialBackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := send.Start(); err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	const n = 3
	dest := recv.Addr(wire.TCP)
	deadline := time.Now().Add(50 * time.Millisecond).UnixNano()
	notifies := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		send.SendQoS(wire.TCP, dest, pooled(fmt.Sprintf("doomed%d", i)),
			wire.QoS{Class: wire.ClassTelemetry, Deadline: deadline},
			func(err error) { notifies <- err })
		send.SendQoS(wire.TCP, dest, pooled(fmt.Sprintf("durable%d", i)),
			wire.QoS{}, func(err error) { notifies <- err })
	}

	time.Sleep(150 * time.Millisecond) // the outage outlives the deadline
	inj.Remove(refuseID)
	waitCount(t, col, n)

	var deliveredN, expiredN int
	for i := 0; i < 2*n; i++ {
		err := expectNotify(t, notifies)
		if err == nil {
			deliveredN++
			continue
		}
		var de *ErrDropped
		if !errors.As(err, &de) || de.Reason != DropExpired || de.Class != wire.ClassTelemetry {
			t.Fatalf("notify %d: %v, want expired telemetry ErrDropped", i, err)
		}
		expiredN++
	}
	if deliveredN != n || expiredN != n {
		t.Fatalf("delivered=%d expired=%d, want %d and %d", deliveredN, expiredN, n, n)
	}
	for i, p := range col.all() {
		if want := fmt.Sprintf("durable%d", i); string(p) != want {
			t.Fatalf("delivery %d = %q, want %q (expired message leaked or order broke)", i, p, want)
		}
	}
	if got := send.DropStats().PerClass[wire.ClassTelemetry].Expired; got != uint64(expiredN) {
		t.Fatalf("telemetry expired counter = %d, notify accounting saw %d", got, expiredN)
	}
}

// countingClock is a real clock that counts its Now calls.
type countingClock struct {
	clock.Real
	nows atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.nows.Add(1)
	return c.Real.Now()
}

// TestQoSZeroQoSNeverReadsClock pins the clock-free send path: zero-QoS
// sends over a live TCP channel never read the clock, and a deadlined
// message reads it exactly twice — at enqueue for its own deadline, and
// at dequeue for the sweep — after which the channel is clock-free again.
func TestQoSZeroQoSNeverReadsClock(t *testing.T) {
	leakCheck(t)
	col := &collector{}
	recv, err := NewEndpoint(Config{ListenAddr: "127.0.0.1:0", OnMessage: col.onMessage})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	clk := &countingClock{}
	send, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		OnMessage:  func(_ From, p []byte) { bufpool.Put(p) },
		Protocols:  []wire.Transport{wire.TCP},
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := send.Start(); err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	base := clk.nows.Load() // the drop-warn limiter stamps its start

	dest := recv.Addr(wire.TCP)
	const n = 1_000
	for i := 0; i < n; i++ {
		send.Send(wire.TCP, dest, pooled(fmt.Sprintf("m%d", i)), nil)
	}
	waitCount(t, col, n)
	if got := clk.nows.Load() - base; got != 0 {
		t.Fatalf("%d zero-QoS sends read the clock %d times, want 0", n, got)
	}

	deadline := time.Now().Add(time.Hour).UnixNano()
	send.SendQoS(wire.TCP, dest, pooled("timed"), wire.QoS{Deadline: deadline}, nil)
	waitCount(t, col, n+1)
	send.Send(wire.TCP, dest, pooled("after"), nil)
	waitCount(t, col, n+2)
	if got := clk.nows.Load() - base; got != 2 {
		t.Fatalf("one deadlined message read the clock %d times, want 2 (enqueue and dequeue)", got)
	}
}
