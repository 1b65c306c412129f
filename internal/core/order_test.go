package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// TestCodecStageOrderProperty is the per-peer FIFO + exactly-once-notify
// property test for the parallel codec stage: concurrent producers publish
// interleaved NotifyReqs to K peers through one Network, whose encode runs
// on the stage's workers with a deliberately tight inflight bound (so both
// the pooled and the inline-saturation encode paths are exercised). Every peer
// must observe its stream in submission order, and every request ID must
// produce exactly one NotifyResp. Run under -race -count=3 in CI.
func TestCodecStageOrderProperty(t *testing.T) {
	const (
		peers   = 4
		perPeer = 150
	)
	ports := freePorts(t, peers+1)
	receivers := make([]*node, peers)
	for i := range receivers {
		receivers[i] = startNode(t, ports[i])
	}

	// Sender with an inflight bound far below the offered load.
	self := MustParseAddress(fmt.Sprintf("127.0.0.1:%d", ports[peers]))
	netDef, err := NewNetwork(NetworkConfig{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	netDef.stageLimit = 16
	sys := kompics.NewSystem()
	t.Cleanup(sys.Shutdown)
	netComp := sys.Create(netDef)
	app := &appComponent{}
	appComp := sys.Create(app)
	kompics.MustConnect(netDef.Port(), app.net)
	sys.Start(netComp)
	sys.Start(appComp)
	waitFor(t, "sender listeners", func() bool { return netDef.Addr(TCP) != "" })

	// Two producers, two peers each: per-peer submission order is one
	// producer's program order, while the stage sees concurrent traffic.
	total := peers * perPeer
	for p := 0; p < peers/2; p++ {
		go func(p int) {
			rng := rand.New(rand.NewSource(int64(p)))
			mine := []int{2 * p, 2*p + 1}
			next := make(map[int]uint32)
			for n := 0; n < 2*perPeer; n++ {
				peer := mine[rng.Intn(len(mine))]
				if next[peer] == perPeer {
					peer = mine[0] + mine[1] - peer
				}
				seq := next[peer]
				next[peer]++
				payload := make([]byte, 32)
				binary.BigEndian.PutUint32(payload, seq)
				msg := &DataMsg{
					Hdr:     NewHeader(self, receivers[peer].self, TCP),
					Payload: payload,
				}
				id := uint64(peer)<<32 | uint64(seq)
				app.comp.SelfTrigger(sendReq{e: NotifyReq{ID: id, Msg: msg}})
			}
		}(p)
	}

	waitFor(t, "all notify responses", func() bool { return app.notifyCount() == total })
	// Exactly-once: no duplicate or unexpected IDs, every send succeeded.
	app.mu.Lock()
	seen := make(map[uint64]bool, total)
	for _, resp := range app.notifies {
		if seen[resp.ID] {
			app.mu.Unlock()
			t.Fatalf("duplicate NotifyResp for ID %#x", resp.ID)
		}
		seen[resp.ID] = true
		if !resp.Sent() {
			app.mu.Unlock()
			t.Fatalf("send %#x failed: %v", resp.ID, resp.Err)
		}
	}
	app.mu.Unlock()
	for peer := 0; peer < peers; peer++ {
		for seq := uint32(0); seq < perPeer; seq++ {
			if !seen[uint64(peer)<<32|uint64(seq)] {
				t.Fatalf("missing NotifyResp for peer %d seq %d", peer, seq)
			}
		}
	}

	deadline := time.Now().Add(15 * time.Second)
	for _, r := range receivers {
		for time.Now().Before(deadline) && r.app.receivedCount() < perPeer {
			time.Sleep(2 * time.Millisecond)
		}
	}
	for i, r := range receivers {
		r.app.mu.Lock()
		got := append([]*DataMsg(nil), r.app.received...)
		r.app.mu.Unlock()
		if len(got) != perPeer {
			t.Fatalf("peer %d received %d of %d messages", i, len(got), perPeer)
		}
		for j, m := range got {
			if s := binary.BigEndian.Uint32(m.Payload); s != uint32(j) {
				t.Fatalf("peer %d position %d: got seq %d, want %d — per-peer FIFO violated by codec stage", i, j, s, j)
			}
		}
	}
}
