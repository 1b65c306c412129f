package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// seqCollector records the per-peer sequence numbers it receives, in
// arrival order.
type seqCollector struct {
	mu   sync.Mutex
	seqs []uint32
}

func (c *seqCollector) onMessage(_ From, p []byte) {
	c.mu.Lock()
	if len(p) >= 4 {
		c.seqs = append(c.seqs, binary.BigEndian.Uint32(p))
	}
	c.mu.Unlock()
	bufpool.Put(p)
}

func (c *seqCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seqs)
}

// TestSendOrderPropertyManyPeers is the per-peer FIFO property test for
// the outgoing registry: concurrent producers blast interleaved sends at
// K peers through the one registry mutex, and every peer must observe its
// own messages in submission order with exactly one notify per send. Run
// under -race -count=3 in CI.
func TestSendOrderPropertyManyPeers(t *testing.T) {
	leakCheck(t)
	const (
		peers   = 6
		perPeer = 200
	)
	// One receiver endpoint per peer so each (proto, dest) key is a
	// distinct registry entry on the sender.
	recv := make([]*seqCollector, peers)
	dests := make([]string, peers)
	for i := range recv {
		col := &seqCollector{}
		ep, err := NewEndpoint(Config{
			ListenAddr: "127.0.0.1:0",
			Protocols:  []wire.Transport{wire.TCP},
			OnMessage:  col.onMessage,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		recv[i] = col
		dests[i] = ep.Addr(wire.TCP)
	}
	sender, err := NewEndpoint(Config{
		ListenAddr: "127.0.0.1:0",
		Protocols:  []wire.Transport{wire.TCP},
		OnMessage:  func(_ From, p []byte) { bufpool.Put(p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Close)

	// Each producer goroutine owns two peers, so per-peer submission order
	// is that producer's program order while the registry itself sees
	// concurrent traffic.
	var notified sync.WaitGroup
	var mu sync.Mutex
	var sendErrs []error
	var producers sync.WaitGroup
	for p := 0; p < peers/2; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
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
				buf := bufpool.Get(8)
				binary.BigEndian.PutUint32(buf, seq)
				binary.BigEndian.PutUint32(buf[4:], uint32(peer))
				notified.Add(1)
				sender.Send(wire.TCP, dests[peer], buf, func(err error) {
					if err != nil {
						mu.Lock()
						sendErrs = append(sendErrs, fmt.Errorf("peer %d seq %d: %w", peer, seq, err))
						mu.Unlock()
					}
					notified.Done()
				})
			}
		}(p)
	}
	producers.Wait()
	notified.Wait() // exactly-once: Done must fire once per Send or this hangs
	mu.Lock()
	if len(sendErrs) > 0 {
		t.Fatalf("%d sends failed, first: %v", len(sendErrs), sendErrs[0])
	}
	mu.Unlock()

	deadline := time.Now().Add(15 * time.Second)
	for _, col := range recv {
		for time.Now().Before(deadline) && col.count() < perPeer {
			time.Sleep(2 * time.Millisecond)
		}
	}
	for i, col := range recv {
		col.mu.Lock()
		seqs := append([]uint32(nil), col.seqs...)
		col.mu.Unlock()
		if len(seqs) != perPeer {
			t.Fatalf("peer %d received %d of %d messages", i, len(seqs), perPeer)
		}
		for j, s := range seqs {
			if s != uint32(j) {
				t.Fatalf("peer %d position %d: got seq %d, want %d — per-peer FIFO violated", i, j, s, j)
			}
		}
	}
}
