// recv.go covers the receive-path handoff sinks: the transport endpoint's
// deliver funnel and the core receive callback, which ranges over its
// batch, both documented ownership transfers. The analyzer must stay
// silent.
package clean

import "github.com/kompics/kompicsmessaging-go/internal/bufpool"

// endpointLike mimics transport.Endpoint: deliver funnels every inbound
// payload (framed and datagram alike) into the configured callback,
// forwarding ownership.
type endpointLike struct {
	onMessage func(from string, payload []byte)
}

func (e *endpointLike) deliver(from string, payload []byte) {
	e.onMessage(from, payload)
}

// readLoopShape is readFrames' pattern: a pooled buffer per frame, handed
// off through deliver.
func readLoopShape(e *endpointLike, from string, frame []byte) {
	b := bufpool.Get(len(frame))
	copy(b, frame)
	e.deliver(from, b)
}

// receiverLike mimics core's Network.receive, the OnMessages callback:
// it decodes every payload of a batch on the calling goroutine, and the
// decode consumes the buffer.
type receiverLike struct{ decoded int }

func (r *receiverLike) receive(from string, payloads [][]byte) {
	for _, p := range payloads {
		r.decode(p)
	}
}

func (r *receiverLike) decode(p []byte) {
	r.decoded += len(p)
	bufpool.Put(p)
}

// datagramShape is the UDP reader's pattern: copy the datagram out of the
// socket buffer into a pooled payload and hand it on as a one-frame batch.
func datagramShape(r *receiverLike, from string, dgram []byte) {
	b := bufpool.Get(len(dgram))
	copy(b, dgram)
	r.receive(from, [][]byte{b})
}
