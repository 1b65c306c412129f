package core

// The decode stage is the receive-side instantiation of the ordered lane
// stage (lanestage.go): work is decodeWire (decompress + decode), the
// dominant per-message CPU cost on the receive path; a lane is one
// (protocol, peer) origin; release hands the message into component
// context, so messages reach the component in the order their frames
// arrived from that peer, and a frame from peer A never waits behind
// decode work for peer B.
//
// Buffer ownership: the pooled payload arrives owned by the stage
// (transport's OnMessage contract) and passes to decodeWire, which
// consumes it; a frame that never reaches a decoder is recycled by drop.
// No path leaks a buffer.

import (
	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// decodeJob is one inbound frame: the owned wire payload, then the decode
// result.
type decodeJob struct {
	payload []byte
	msg     Msg
	err     error
}

// decodeStage is created together with the Endpoint whose OnMessage feeds
// it and closed last in OnStop/OnKill, after the endpoint — the read
// loops are gone by then, so nothing submits during the teardown.
type decodeStage struct {
	n     *Network
	lanes *laneStage[decodeJob]
}

func newDecodeStage(n *Network) *decodeStage {
	st := &decodeStage{n: n}
	st.lanes = newLaneStage(n.stageLimit, st.decode, st.deliver, st.drop)
	return st
}

// submit sequences one inbound frame. It is the transport endpoint's
// OnMessage callback: ownership of the pooled payload passes to the
// stage here. Frames sharing a From arrive from one read goroutine, so
// lane order IS wire order; at the inflight bound that goroutine decodes
// inline, which stalls only the saturating connection — the flow control
// a stream transport wants.
func (st *decodeStage) submit(from transport.From, payload []byte) {
	st.lanes.submit(laneKey{proto: from.Proto, addr: from.Peer}, decodeJob{payload: payload})
}

func (st *decodeStage) close() { st.lanes.close() }

func (st *decodeStage) decode(j *decodeJob) {
	j.msg, j.err = st.n.decodeWire(j.payload)
	j.payload = nil
}

// deliver hands a decoded message into component context (SelfTrigger is
// goroutine-safe and a no-op on a halted component), or logs the decode
// error. Empty payloads decode to (nil, nil) and are silently ignored.
func (st *decodeStage) deliver(j *decodeJob) {
	if j.err != nil {
		st.n.cfg.Logger.Warn("core: dropping inbound message", "err", j.err)
		return
	}
	if j.msg != nil {
		st.n.comp.SelfTrigger(inbound{msg: j.msg})
	}
}

func (st *decodeStage) drop(j *decodeJob) {
	bufpool.Put(j.payload)
}
