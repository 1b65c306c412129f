package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// coreLeakCheck arms bufpool's debug accounting and asserts at teardown
// that every pooled buffer taken on the wire path came back. Registered
// before the nodes' own Cleanups so that (LIFO) the assertion runs after
// their systems have shut down and the decode stages drained.
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

// shutdownNode stops a test node's system, then tears its network down
// the way OnStop would — System.Shutdown alone leaves the endpoint open —
// so that when it returns every transport goroutine has exited and both
// lane stages have settled their jobs and returned their buffers.
func shutdownNode(sys *kompics.System, n *Network) {
	sys.Shutdown()
	n.stop()
}

// startDecodeNode builds a receiver whose decode stage runs against a
// deliberately tight inflight bound, so both the pooled and the
// inline-saturation decode paths are exercised.
func startDecodeNode(t *testing.T, port int) *node {
	t.Helper()
	self := MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
	netDef, err := NewNetwork(NetworkConfig{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	netDef.stageLimit = 8
	sys := kompics.NewSystem()
	t.Cleanup(func() { shutdownNode(sys, netDef) })
	netComp := sys.Create(netDef)
	app := &appComponent{}
	appComp := sys.Create(app)
	kompics.MustConnect(netDef.Port(), app.net)
	sys.Start(netComp)
	sys.Start(appComp)
	waitFor(t, "receiver listeners", func() bool { return netDef.Addr(TCP) != "" })
	return &node{self: self, sys: sys, net: netDef, netComp: netComp, app: app}
}

// decodePayload builds a compressible payload (so flate survives encode
// and the decode workers actually decompress) carrying seq in its first
// four bytes.
func decodePayload(seq uint32) []byte {
	p := bytes.Repeat([]byte("inbound fan-in payload "), 12)[:256]
	binary.BigEndian.PutUint32(p, seq)
	return p
}

// TestDecodeStageRecvOrderProperty is the per-peer FIFO property test for
// the parallel decode stage: N sender nodes blast interleaved messages at
// ONE receiver whose decode runs on the stage's workers behind an inflight
// bound of 8. Every sender's stream must reach the receiving application in
// submission order even though frames decode concurrently and out of
// order, and (coreLeakCheck) no pooled buffer may leak across the
// transport→stage→component handoff. Run under -race -count=3 in CI.
func TestDecodeStageRecvOrderProperty(t *testing.T) {
	coreLeakCheck(t)
	const (
		senders = 4
		perPeer = 150
	)
	ports := freePorts(t, senders+1)
	recv := startDecodeNode(t, ports[senders])
	nodes := make([]*node, senders)
	for i := range nodes {
		nodes[i] = startNode(t, ports[i])
	}

	for i, n := range nodes {
		go func(i int, n *node) {
			for seq := uint32(0); seq < perPeer; seq++ {
				msg := &DataMsg{
					Hdr:     NewHeader(n.self, recv.self, TCP),
					Payload: decodePayload(seq),
				}
				n.appTrigger(msg)
			}
		}(i, n)
	}

	waitFor(t, "all fan-in deliveries", func() bool {
		return recv.app.receivedCount() == senders*perPeer
	})
	recv.app.mu.Lock()
	got := append([]*DataMsg(nil), recv.app.received...)
	recv.app.mu.Unlock()

	bySource := make(map[string][]uint32)
	for _, m := range got {
		src := m.Hdr.Source().AsSocket()
		bySource[src] = append(bySource[src], binary.BigEndian.Uint32(m.Payload))
	}
	if len(bySource) != senders {
		t.Fatalf("received from %d sources, want %d", len(bySource), senders)
	}
	for src, seqs := range bySource {
		if len(seqs) != perPeer {
			t.Fatalf("source %s delivered %d of %d messages — at-most-once or loss violated", src, len(seqs), perPeer)
		}
		for j, s := range seqs {
			if s != uint32(j) {
				t.Fatalf("source %s position %d: got seq %d, want %d — per-peer FIFO violated by decode stage", src, j, s, j)
			}
		}
	}
}

// TestDecodeStageDrainNoLeak shuts the receiver down in the middle of a
// fan-in: the decode stage must fail its undecoded backlog without
// leaking a single pooled buffer, and every sender-side notify must still
// resolve exactly once (delivered or failed). The leak assertion runs
// after both systems are down.
func TestDecodeStageDrainNoLeak(t *testing.T) {
	coreLeakCheck(t)
	const perPeer = 400
	ports := freePorts(t, 2)
	recv := startDecodeNode(t, ports[1])
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

	// Kill the receiver once the stream is demonstrably flowing; frames
	// already submitted to its decode stage become the drained backlog.
	waitFor(t, "mid-stream traffic", func() bool { return recv.app.receivedCount() >= perPeer/8 })
	recv.sys.Shutdown()

	// Exactly-once on the sender side: every NotifyReq resolves even
	// though the peer died mid-stream.
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

	// The delivered prefix is still in order.
	recv.app.mu.Lock()
	got := append([]*DataMsg(nil), recv.app.received...)
	recv.app.mu.Unlock()
	for j, m := range got {
		if s := binary.BigEndian.Uint32(m.Payload); s != uint32(j) {
			t.Fatalf("position %d: got seq %d, want %d — delivered prefix out of order", j, s, j)
		}
	}
	sender.sys.Shutdown()
	// Give lingering transport goroutines (failed redials) a moment to
	// release their buffers before the cleanup assertion runs.
	time.Sleep(50 * time.Millisecond)
}

// TestDecodeStageCloseReturnsQueuedBatches closes a decode stage while
// batches are still queued for its workers: every payload must come back
// to bufpool — decoded ones through decodeWire, the rest through the
// stage's abandon — and every frame is either delivered to the inbox or
// dropped, none twice.
func TestDecodeStageCloseReturnsQueuedBatches(t *testing.T) {
	coreLeakCheck(t)
	const lanes, batches, perBatch = 4, 25, 16
	n, err := NewNetwork(NetworkConfig{Self: MustParseAddress("127.0.0.1:1")})
	if err != nil {
		t.Fatal(err)
	}
	sys := kompics.NewSystem()
	t.Cleanup(sys.Shutdown)
	sys.Create(n)          // Init binds the inbox; never started, so nothing drains it
	n.stageLimit = 1 << 20 // queue everything; no inline decode
	st := newDecodeStage(n)

	// Encode every payload first, so the submits land back to back and
	// the close finds most of them still queued.
	msg := &DataMsg{Hdr: NewHeader(n.cfg.Self, MustParseAddress("127.0.0.1:2"), TCP), Payload: decodePayload(1)}
	wires := make([][][]byte, lanes*batches)
	for i := range wires {
		wires[i] = make([][]byte, perBatch)
		for j := range wires[i] {
			if wires[i][j], err = n.encode(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			from := transport.From{Proto: TCP, Peer: fmt.Sprintf("127.0.0.1:%d", 40000+l)}
			for b := 0; b < batches; b++ {
				st.submit(from, wires[l*batches+b])
			}
		}(l)
	}
	wg.Wait()
	st.close()

	n.inbox.mu.Lock()
	delivered := len(n.inbox.items)
	n.inbox.mu.Unlock()
	total := lanes * batches * perBatch
	t.Logf("%d of %d frames decoded before the close", delivered, total)
	if delivered >= total {
		t.Fatalf("all %d frames decoded: the close found nothing queued", total)
	}
}
