// recv.go covers the receive-path handoff sinks: the transport read loops
// handing each payload to the configured OnMessage callback, and the core
// receive callback, whose decode consumes the payload — both documented
// ownership transfers. The analyzer must stay silent.
package clean

import "github.com/kompics/kompicsmessaging-go/internal/bufpool"

// endpointLike mimics transport.Endpoint: its read loops hand every
// inbound payload (framed and datagram alike) to the configured callback,
// forwarding ownership.
type endpointLike struct {
	onMessage func(from string, payload []byte)
}

// readLoopShape is readFrames' pattern: a pooled buffer per frame, handed
// off through the callback.
func readLoopShape(e *endpointLike, from string, frame []byte) {
	b := bufpool.Get(len(frame))
	copy(b, frame)
	e.onMessage(from, b)
}

// receiverLike mimics core's Network.receive, the OnMessage callback: it
// decodes the payload on the calling goroutine, and the decode consumes
// the buffer.
type receiverLike struct{ decoded int }

func (r *receiverLike) receive(from string, payload []byte) {
	r.decode(payload)
}

func (r *receiverLike) decode(p []byte) {
	r.decoded += len(p)
	bufpool.Put(p)
}

// datagramShape is the UDP reader's pattern: copy the datagram out of the
// socket buffer into a pooled payload and hand it on.
func datagramShape(r *receiverLike, from string, dgram []byte) {
	b := bufpool.Get(len(dgram))
	copy(b, dgram)
	r.receive(from, b)
}
