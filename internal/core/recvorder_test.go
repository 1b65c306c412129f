package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
)

// coreLeakCheck arms bufpool's debug accounting and asserts at teardown
// that every pooled buffer taken on the wire path came back. Registered
// before the nodes' own Cleanups so that (LIFO) the assertion runs after
// their systems and endpoints have shut down.
func coreLeakCheck(t *testing.T) {
	t.Helper()
	bufpool.ResetStats()
	bufpool.SetDebug(true)
	t.Cleanup(func() {
		bufpool.SetDebug(false)
		if n := bufpool.Outstanding(); n != 0 {
			t.Errorf("bufpool leak: %d buffer(s) outstanding after shutdown", n)
		}
	})
}

// decodePayload builds a compressible payload over the compression floor
// (so flate survives encode and the receiving read loops actually
// decompress) carrying seq in its first four bytes.
func decodePayload(seq uint32) []byte {
	p := bytes.Repeat([]byte("inbound fan-in payload "), 45)[:1024]
	binary.BigEndian.PutUint32(p, seq)
	return p
}

// seqsBySource groups the messages a node's app received by source
// address, as the sequence numbers decodePayload wrote.
func seqsBySource(app *appComponent) map[string][]uint32 {
	app.mu.Lock()
	defer app.mu.Unlock()
	out := make(map[string][]uint32)
	for _, m := range app.received {
		src := m.Hdr.Source().AsSocket()
		out[src] = append(out[src], binary.BigEndian.Uint32(m.Payload))
	}
	return out
}

// checkFIFO fails unless seqs is 0, 1, 2, … (a prefix of the stream when
// want < 0, otherwise exactly want long).
func checkFIFO(t *testing.T, src string, seqs []uint32, want int) {
	t.Helper()
	if want >= 0 && len(seqs) != want {
		t.Fatalf("source %s delivered %d of %d messages — at-most-once or loss violated", src, len(seqs), want)
	}
	for j, s := range seqs {
		if s != uint32(j) {
			t.Fatalf("source %s position %d: got seq %d, want %d — per-peer FIFO violated", src, j, s, j)
		}
	}
}

// TestRecvOrderNetworkFanin is the Network-level per-peer FIFO property:
// N sender nodes blast interleaved messages at ONE receiver, whose read
// loops decompress and decode their batches concurrently. Every sender's
// stream must reach the receiving application in submission order,
// exactly once, and (coreLeakCheck) no pooled buffer may leak across the
// transport→decode→component hand-off. Run under -race -count=3 in CI.
func TestRecvOrderNetworkFanin(t *testing.T) {
	coreLeakCheck(t)
	const (
		senders = 4
		perPeer = 150
	)
	ports := freePorts(t, senders+1)
	recv := startNode(t, ports[senders])
	nodes := make([]*node, senders)
	for i := range nodes {
		nodes[i] = startNode(t, ports[i])
	}

	for _, n := range nodes {
		go func(n *node) {
			for seq := uint32(0); seq < perPeer; seq++ {
				n.appTrigger(&DataMsg{
					Hdr:     NewHeader(n.self, recv.self, TCP),
					Payload: decodePayload(seq),
				})
			}
		}(n)
	}

	waitFor(t, "all fan-in deliveries", func() bool {
		return recv.app.receivedCount() == senders*perPeer
	})
	bySource := seqsBySource(recv.app)
	if len(bySource) != senders {
		t.Fatalf("received from %d sources, want %d", len(bySource), senders)
	}
	for src, seqs := range bySource {
		checkFIFO(t, src, seqs, perPeer)
	}
}

// TestRecvOrderStopMidStreamNoLeak stops the receiving Network component
// in the middle of a stream: its endpoint closes under the read loops
// without leaking a single pooled buffer, every sender-side notify
// resolves exactly once (sent or failed), and the delivered prefix is in
// order. The leak assertion runs after both systems are down.
func TestRecvOrderStopMidStreamNoLeak(t *testing.T) {
	coreLeakCheck(t)
	const perPeer = 400
	ports := freePorts(t, 2)
	recv := startNode(t, ports[1])
	sender := startNode(t, ports[0])

	go func() {
		for seq := uint32(0); seq < perPeer; seq++ {
			msg := &DataMsg{
				Hdr:     NewHeader(sender.self, recv.self, TCP),
				Payload: decodePayload(seq),
			}
			sender.appTrigger(NotifyReq{ID: uint64(seq), Msg: msg})
		}
	}()

	// Stop the receiver once the stream is demonstrably flowing.
	waitFor(t, "mid-stream traffic", func() bool { return recv.app.receivedCount() >= perPeer/8 })
	recv.sys.Stop(recv.netComp)

	waitFor(t, "all notifies resolved", func() bool {
		return sender.app.notifyCount() == perPeer
	})
	sender.app.mu.Lock()
	seen := make(map[uint64]bool, perPeer)
	for _, resp := range sender.app.notifies {
		if seen[resp.ID] {
			sender.app.mu.Unlock()
			t.Fatalf("duplicate NotifyResp for ID %d", resp.ID)
		}
		seen[resp.ID] = true
	}
	sender.app.mu.Unlock()

	for src, seqs := range seqsBySource(recv.app) {
		checkFIFO(t, src, seqs, -1)
	}
	recv.sys.Shutdown()
	sender.sys.Shutdown()
	// Give lingering transport goroutines (failed redials) a moment to
	// release their buffers before the cleanup assertion runs.
	time.Sleep(50 * time.Millisecond)
}

// gateMsg is the blocked-peer test's message: its decode waits on the
// serializer's gate when hold is set.
type gateMsg struct {
	hdr  BasicHeader
	seq  uint32
	hold bool
}

func (m *gateMsg) Header() Header { return &m.hdr }

// gateSerializer encodes gateMsgs and decodes them into DataMsgs carrying
// the sequence number, so appComponent records them. Decoding a held one
// signals entered and then blocks until open is closed.
type gateSerializer struct{ entered, open chan struct{} }

func (gateSerializer) ID() codec.SerializerID { return FirstApplicationSerializerID + 2 }

func (gateSerializer) Serialize(w io.Writer, v any) error {
	m := v.(*gateMsg)
	if err := WriteBasicHeader(w, m.hdr); err != nil {
		return err
	}
	if err := codec.WriteUint32(w, m.seq); err != nil {
		return err
	}
	return codec.WriteBool(w, m.hold)
}

func (g gateSerializer) Deserialize(r io.Reader) (any, error) {
	hdr, err := ReadBasicHeader(r)
	if err != nil {
		return nil, err
	}
	seq, err := codec.ReadUint32(r)
	if err != nil {
		return nil, err
	}
	hold, err := codec.ReadBool(r)
	if err != nil {
		return nil, err
	}
	if hold {
		g.entered <- struct{}{}
		<-g.open
	}
	return &DataMsg{Hdr: hdr, Payload: binary.BigEndian.AppendUint32(nil, seq)}, nil
}

// TestRecvOrderBlockedPeerDoesNotStallOthers holds peer A's decode on a
// gate inside the receiver and checks that peer B's whole stream is still
// delivered, in order, meanwhile: a frame from one peer never waits
// behind decode work for another. Once the gate opens, A's stream —
// queued behind its held frame on A's own connection — arrives in order.
func TestRecvOrderBlockedPeerDoesNotStallOthers(t *testing.T) {
	coreLeakCheck(t)
	const perPeer = 100
	gate := gateSerializer{entered: make(chan struct{}, 1), open: make(chan struct{})}
	reg := NewRegistry()
	reg.MustRegister(gate, (*gateMsg)(nil))
	ports := freePorts(t, 3)
	start := func(port int) *node {
		return startNodeConfig(t, NetworkConfig{
			Self:      MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port)),
			Registry:  reg,
			Protocols: []Transport{TCP},
		})
	}
	recv, a, b := start(ports[0]), start(ports[1]), start(ports[2])
	// Registered last, so it runs first: a failing test must not leave
	// A's read loop blocked in decode while the endpoints close.
	var openOnce sync.Once
	release := func() { openOnce.Do(func() { close(gate.open) }) }
	t.Cleanup(release)

	send := func(n *node, hold bool) {
		for seq := uint32(0); seq < perPeer; seq++ {
			n.appTrigger(&gateMsg{
				hdr:  NewHeader(n.self, recv.self, TCP),
				seq:  seq,
				hold: hold && seq == 0,
			})
		}
	}
	send(a, true)
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("peer A's first message never reached decode")
	}
	send(b, false)

	waitFor(t, "peer B's stream while A's decode is held", func() bool {
		return len(seqsBySource(recv.app)[b.self.AsSocket()]) == perPeer
	})
	bySource := seqsBySource(recv.app)
	checkFIFO(t, b.self.AsSocket(), bySource[b.self.AsSocket()], perPeer)
	if got := len(bySource[a.self.AsSocket()]); got != 0 {
		t.Fatalf("%d of peer A's messages delivered while its first was held in decode", got)
	}

	release()
	waitFor(t, "peer A's stream after the gate opens", func() bool {
		return recv.app.receivedCount() == 2*perPeer
	})
	checkFIFO(t, a.self.AsSocket(), seqsBySource(recv.app)[a.self.AsSocket()], perPeer)
}
