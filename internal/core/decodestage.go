package core

// The decode stage is the receive-side instantiation of the ordered lane
// stage (lanestage.go): work is decodeWire (decompress + decode), the
// dominant per-message CPU cost on the receive path; a lane is one
// (protocol, peer) origin; release hands the messages into component
// context, so messages reach the component in the order their frames
// arrived from that peer, and a frame from peer A never waits behind
// decode work for peer B. A job is one transport batch — the contiguous
// run of one connection's frames that a single read brought in — decoded
// in order and released together through the Network's inbox.
//
// Buffer ownership: the pooled payloads arrive owned by the stage
// (transport's OnMessages contract) and pass to decodeWire, which
// consumes them; a batch that never reaches a decoder is recycled by drop.
// No path leaks a buffer.

import (
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// decodedFrame is one inbound frame: the owned wire payload, then the
// decode result.
type decodedFrame struct {
	payload []byte
	msg     Msg
	err     error
}

// decodeJob is one transport batch. Its frames slice comes from
// batchPool and goes back there once the job settles.
type decodeJob struct{ frames *[]decodedFrame }

var batchPool = sync.Pool{New: func() any { return new([]decodedFrame) }}

// decodeStage is created together with the Endpoint whose OnMessages feeds
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

// submit sequences one inbound batch. It is the transport endpoint's
// OnMessages callback: ownership of the pooled payloads passes to the
// stage here (the payloads slice itself stays the reader's). Batches
// sharing a From arrive from one read goroutine, so lane order IS wire
// order; at the inflight bound that goroutine decodes inline, which
// stalls only the saturating connection — the flow control a stream
// transport wants.
func (st *decodeStage) submit(from transport.From, payloads [][]byte) {
	frames := batchPool.Get().(*[]decodedFrame)
	for i := range payloads {
		*frames = append(*frames, decodedFrame{payload: payloads[i]})
	}
	st.lanes.submit(laneKey{proto: from.Proto, addr: from.Peer}, decodeJob{frames: frames})
}

func (st *decodeStage) close() { st.lanes.close() }

func (st *decodeStage) decode(j *decodeJob) {
	for i := range *j.frames {
		f := &(*j.frames)[i]
		f.msg, f.err = st.n.decodeWire(f.payload)
		f.payload = nil
	}
}

// deliver queues the batch's messages on the Network's inbox in order,
// and logs the frames that failed to decode. Empty payloads decode to
// (nil, nil) and are silently ignored.
func (st *decodeStage) deliver(j *decodeJob) {
	for _, f := range *j.frames {
		if f.err != nil {
			st.n.cfg.Logger.Warn("core: dropping inbound message", "err", f.err)
		}
	}
	st.n.inbox.pushMsgs(*j.frames)
	recycleBatch(j.frames)
}

func (st *decodeStage) drop(j *decodeJob) {
	for _, f := range *j.frames {
		bufpool.Put(f.payload)
	}
	recycleBatch(j.frames)
}

// recycleBatch returns a settled batch's slice to batchPool; transport
// batches are bounded, so the slices it keeps are too.
func recycleBatch(frames *[]decodedFrame) {
	clear(*frames)
	*frames = (*frames)[:0]
	batchPool.Put(frames)
}
