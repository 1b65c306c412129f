package transport

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// BenchmarkPendingQueue measures the per-push cost of the pending queue
// on a saturated channel, where every push runs the shed logic, by kind
// of traffic: zero-QoS messages (rejected at the limit), keyed telemetry
// over 16 keys (mostly replaced in place), and deadlined telemetry, half
// of it born dead and the rest lapsing partway through the run (a full
// queue is swept before each rejection).
// Steady-state drop handling must not allocate: the displaced-message
// scratch is owned by the queue and reused.
func BenchmarkPendingQueue(b *testing.B) {
	const limit = 64
	for _, tc := range []struct {
		name string
		qos  func(i int) wire.QoS
	}{
		{"zero-qos", func(int) wire.QoS { return wire.QoS{} }},
		{"keyed", func(i int) wire.QoS {
			return wire.QoS{Class: wire.ClassTelemetry, Key: fmt.Sprintf("k%d", i%16)}
		}},
		{"deadlined", func(i int) wire.QoS {
			return wire.QoS{Class: wire.ClassTelemetry, Deadline: int64(i%2)*1_000_000 + 1}
		}},
	} {
		msgs := make([]outMsg, 256)
		for i := range msgs {
			p := make([]byte, 4)
			binary.BigEndian.PutUint32(p, uint32(i))
			msgs[i] = outMsg{payload: p, qos: tc.qos(i)}
		}
		b.Run(tc.name, func(b *testing.B) {
			p := &pendingQueue{limit: limit, msgs: make([]outMsg, 0, limit)}
			batch := make([]outMsg, 0, limit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.push(msgs[i&255], int64(i))
				if len(p.msgs) >= limit && i&1023 == 0 {
					// Occasional drain, as a reconnect or a briefly keeping-up
					// writer would: the steady state stays saturated.
					p.expire(int64(i))
					batch = p.drain(batch[:0])
				}
			}
		})
	}
}
