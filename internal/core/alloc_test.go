package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// The allocation guards measure what the middleware allocates per message
// between two loopback Networks, with a message type whose decode draws
// from a pool (the way a serializer on a hot path would), so that only
// core, transport and kompics allocations are counted. They skip under
// the race detector, whose sync.Pool drops Puts at random.

// pooledMsg is the guards' message: a header and a payload, decoded into
// structs from pooledMsgs and returned there by the receiving component.
type pooledMsg struct {
	hdr     BasicHeader
	payload []byte
}

func (m *pooledMsg) Header() Header { return &m.hdr }

var pooledMsgs = sync.Pool{New: func() any { return new(pooledMsg) }}

type pooledMsgSerializer struct{}

func (pooledMsgSerializer) ID() codec.SerializerID { return FirstApplicationSerializerID + 1 }

func (pooledMsgSerializer) Serialize(w io.Writer, v any) error {
	m := v.(*pooledMsg)
	if err := WriteBasicHeader(w, m.hdr); err != nil {
		return err
	}
	return codec.WriteBytes(w, m.payload)
}

func (pooledMsgSerializer) Deserialize(r io.Reader) (any, error) {
	m := pooledMsgs.Get().(*pooledMsg)
	hdr, err := ReadBasicHeader(r)
	if err != nil {
		return nil, err
	}
	n, err := codec.ReadUvarint(r)
	if err != nil || n > codec.DefaultMaxFrame {
		return nil, fmt.Errorf("pooledMsg: bad payload length %d (%v)", n, err)
	}
	if uint64(cap(m.payload)) < n {
		m.payload = make([]byte, n)
	}
	m.hdr, m.payload = hdr, m.payload[:n]
	if _, err := io.ReadFull(r, m.payload); err != nil {
		return nil, err
	}
	return m, nil
}

// allocPeer is the guards' application component: it counts and recycles
// what arrives, answers a message when echo is set, and on a start event
// sends its prepared message burst times in a row.
type allocPeer struct {
	net  *kompics.Port
	comp *kompics.Component
	out  Msg // the one prepared outgoing message, sent as is every time
	echo bool

	got atomic.Int64
	// onGot, if set, runs in component context after each arrival with
	// the running count; it may trigger on the port.
	onGot func(ctx *kompics.Context, n int64)
}

type allocStart struct{ burst int }

func (p *allocPeer) Init(ctx *kompics.Context) {
	p.comp = ctx.Component()
	p.net = ctx.Requires(NetworkPort)
	ctx.Subscribe(p.net, (*Msg)(nil), func(e kompics.Event) {
		if m, ok := e.(*pooledMsg); ok {
			pooledMsgs.Put(m)
		}
		n := p.got.Add(1)
		if p.echo {
			ctx.Trigger(p.out, p.net)
		}
		if p.onGot != nil {
			p.onGot(ctx, n)
		}
	})
	ctx.SubscribeSelf(allocStart{}, func(e kompics.Event) {
		for i := 0; i < e.(allocStart).burst; i++ {
			ctx.Trigger(p.out, p.net)
		}
	})
}

// allocPair is two TCP-only Networks on loopback, one allocPeer on each.
type allocPair struct {
	a, b *allocPeer
}

func newAllocPair(t *testing.T, size int) *allocPair {
	t.Helper()
	ports := freePorts(t, 2)
	reg := NewRegistry()
	reg.MustRegister(pooledMsgSerializer{}, (*pooledMsg)(nil))
	addrs := make([]BasicAddress, 2)
	peers := make([]*allocPeer, 2)
	for i := range peers {
		addrs[i] = MustParseAddress(fmt.Sprintf("127.0.0.1:%d", ports[i]))
	}
	for i := range peers {
		netDef, err := NewNetwork(NetworkConfig{
			Self: addrs[i], Registry: reg, Compressor: codec.Noop{},
			Protocols: []Transport{TCP},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys := kompics.NewSystem()
		t.Cleanup(sys.Shutdown)
		netComp := sys.Create(netDef)
		peers[i] = &allocPeer{out: &pooledMsg{
			hdr:     NewHeader(addrs[i], addrs[1-i], TCP),
			payload: bytes.Repeat([]byte{byte(i)}, size),
		}}
		peerComp := sys.Create(peers[i])
		kompics.MustConnect(netDef.Port(), peers[i].net)
		sys.Start(netComp)
		sys.Start(peerComp)
		waitFor(t, "listeners", func() bool { return netDef.Addr(TCP) != "" })
	}
	return &allocPair{a: peers[0], b: peers[1]}
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
}

// mallocs runs fn and returns the heap allocations the process made
// meanwhile.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// waitCount waits for c to reach want.
func waitCount(t *testing.T, what string, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d of %d arrived", what, c.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAllocsPerStreamedMessage streams 1 KiB messages one way, 2 000 at
// a time (the transport's pending bound is 4 096), and holds the whole
// path to ≤ 3 heap allocations per message. The steady state allocates
// nothing; what shows (under one per message) is pooled buffers a GC
// cleared while 2 000 messages were in flight.
func TestAllocsPerStreamedMessage(t *testing.T) {
	const burst, rounds, budget = 2000, 3, 3.0
	skipUnderRace(t)
	p := newAllocPair(t, 1024)
	send := func(round int64) {
		p.a.comp.SelfTrigger(allocStart{burst: burst})
		waitCount(t, "stream", &p.b.got, round*burst)
	}
	send(1) // warm-up: connection, pools, queue and ring growth
	allocs := mallocs(func() {
		for r := int64(2); r < 2+rounds; r++ {
			send(r)
		}
	})
	perMsg := float64(allocs) / (burst * rounds)
	t.Logf("%.2f allocations per streamed 1 KiB message", perMsg)
	if perMsg > budget {
		t.Errorf("%.2f allocations per streamed message, budget %.0f", perMsg, budget)
	}
}

// TestAllocsPerPingRoundTrip bounces one 64 B message back and forth, one
// outstanding, and holds a round trip (two messages) to ≤ 1 heap
// allocation; the steady state allocates nothing.
func TestAllocsPerPingRoundTrip(t *testing.T) {
	const trips, budget = 2000, 1.0
	skipUnderRace(t)
	p := newAllocPair(t, 64)
	p.b.echo = true
	target := int64(0)
	p.a.onGot = func(ctx *kompics.Context, n int64) {
		if n < atomic.LoadInt64(&target) {
			ctx.Trigger(p.a.out, p.a.net)
		}
	}
	run := func(upTo int64) {
		atomic.StoreInt64(&target, upTo)
		p.a.comp.SelfTrigger(allocStart{burst: 1})
		waitCount(t, "ping", &p.a.got, upTo)
	}
	run(200) // warm-up
	allocs := mallocs(func() { run(200 + trips) })
	perTrip := float64(allocs) / trips
	t.Logf("%.2f allocations per 64 B ping round trip", perTrip)
	if perTrip > budget {
		t.Errorf("%.2f allocations per ping round trip, budget %.0f", perTrip, budget)
	}
}
