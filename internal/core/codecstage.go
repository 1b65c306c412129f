package core

// The codec stage is the send-side instantiation of the ordered lane
// stage (lanestage.go): work is encode (serialise + optional compress),
// the dominant per-message CPU cost on the send path; a lane is one
// (protocol, destination); release hands the payload to Endpoint.SendQoS,
// so payloads reach the transport in the order sendMsg submitted them for
// that peer. Every job resolves its notify exactly once — through the
// endpoint's notify contract, through an encode error, or through the
// stage abandoning it on close.
//
// Local same-host reflection never enters the stage: sendMsg keeps it
// synchronous on the component thread (§III-B).

import (
	"errors"

	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// errNetworkStopped fails sends the codec stage abandoned because the
// network component stopped before their encode ran.
var errNetworkStopped = errors.New("core: network stopped")

// codecJob is one outgoing message: what sendMsg decided on the component
// thread, plus the encode result.
type codecJob struct {
	msg   Msg
	proto Transport
	dest  string
	// qos is the message's annotation, extracted from the header on the
	// component thread and handed to the endpoint with the payload.
	qos  QoS
	id   uint64
	want bool

	// payload is drawn from bufpool by encode; ownership passes to
	// Endpoint.SendQoS on release.
	payload []byte
	err     error
}

// codecStage is created in OnStart, bound to that start's endpoint, and
// closed first in OnStop/OnKill, on the component thread, before the
// endpoint closes — so jobs already encoded
// still reach Endpoint.SendQoS and fail through its ErrClosed path.
type codecStage struct {
	n     *Network
	ep    *transport.Endpoint
	lanes *laneStage[codecJob]
}

func newCodecStage(n *Network, ep *transport.Endpoint) *codecStage {
	st := &codecStage{n: n, ep: ep}
	st.lanes = newLaneStage(n.stageLimit, st.encode, st.send, st.fail)
	return st
}

// submit sequences one outgoing message. Called only from the Network
// component thread, so lane order IS sendMsg order; at the inflight bound
// the component thread encodes inline — backpressure, not blocking.
func (st *codecStage) submit(msg Msg, proto Transport, dest string, qos QoS, id uint64, want bool) {
	st.lanes.submit(laneKey{proto: proto, addr: dest},
		codecJob{msg: msg, proto: proto, dest: dest, qos: qos, id: id, want: want})
}

func (st *codecStage) close() { st.lanes.close() }

func (st *codecStage) encode(j *codecJob) {
	j.payload, j.err = st.n.encode(j.msg)
}

// send hands an encoded payload to the endpoint (ownership transfers; its
// notify fires exactly once), or surfaces the encode error.
func (st *codecStage) send(j *codecJob) {
	n := st.n
	if j.err != nil {
		n.notify(j.id, j.want, j.err)
		return
	}
	var cb func(error)
	if j.want {
		id := j.id
		cb = func(err error) { n.notify(id, true, err) }
	}
	st.ep.SendQoS(j.proto, j.dest, j.payload, j.qos, cb)
}

func (st *codecStage) fail(j *codecJob) {
	st.n.notify(j.id, j.want, errNetworkStopped)
}
