package core

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// freePorts reserves n distinct even base ports whose +1 neighbour is also
// free, so TCP/UDP can use the base and UDT base+1.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var out []int
	for attempts := 0; len(out) < n && attempts < 400; attempts++ {
		base := 20000 + 2*rng.Intn(20000)
		if portsFree(base) && portsFree(base+1) {
			out = append(out, base)
		}
	}
	if len(out) < n {
		t.Fatal("could not find free ports")
	}
	return out
}

func portsFree(p int) bool {
	tl, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
	if err != nil {
		return false
	}
	tl.Close()
	ul, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", p))
	if err != nil {
		return false
	}
	ul.Close()
	return true
}

// appComponent is a test application that records received messages and
// notify responses. Outgoing traffic is injected with SelfTrigger so that
// all port publishing happens in component context, as the model requires.
type appComponent struct {
	net  *kompics.Port
	comp *kompics.Component

	mu       sync.Mutex
	received []*DataMsg
	notifies []NotifyResp
}

// sendReq is the self-event asking the app component to publish e on its
// network port.
type sendReq struct{ e kompics.Event }

func (a *appComponent) Init(ctx *kompics.Context) {
	a.comp = ctx.Component()
	a.net = ctx.Requires(NetworkPort)
	ctx.Subscribe(a.net, (*Msg)(nil), func(e kompics.Event) {
		if m, ok := e.(*DataMsg); ok {
			a.mu.Lock()
			a.received = append(a.received, m)
			a.mu.Unlock()
		}
	})
	ctx.Subscribe(a.net, NotifyResp{}, func(e kompics.Event) {
		a.mu.Lock()
		a.notifies = append(a.notifies, e.(NotifyResp))
		a.mu.Unlock()
	})
	ctx.SubscribeSelf(sendReq{}, func(e kompics.Event) {
		ctx.Trigger(e.(sendReq).e, a.net)
	})
}

func (a *appComponent) receivedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.received)
}

func (a *appComponent) notifyCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.notifies)
}

// node bundles one middleware instance.
type node struct {
	self    Address
	sys     *kompics.System
	net     *Network
	netComp *kompics.Component
	app     *appComponent
}

func startNode(t *testing.T, port int) *node {
	t.Helper()
	return startNodeConfig(t, NetworkConfig{Self: MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))})
}

// startNodeConfig is startNode with a caller-built NetworkConfig.
func startNodeConfig(t *testing.T, cfg NetworkConfig) *node {
	t.Helper()
	netDef, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := kompics.NewSystem()
	t.Cleanup(sys.Shutdown)
	netComp := sys.Create(netDef)
	app := &appComponent{}
	appComp := sys.Create(app)
	kompics.MustConnect(netDef.Port(), app.net)
	sys.Start(netComp)
	sys.Start(appComp)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && netDef.Addr(TCP) == "" {
		time.Sleep(time.Millisecond)
	}
	if netDef.Addr(TCP) == "" {
		t.Fatal("listeners did not come up")
	}
	return &node{self: cfg.Self, sys: sys, net: netDef, netComp: netComp, app: app}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNetworkConfigValidation(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{}); err == nil {
		t.Fatal("NewNetwork accepted nil Self")
	}
}

func TestNetworkEndToEndAllProtocols(t *testing.T) {
	ports := freePorts(t, 2)
	a := startNode(t, ports[0])
	b := startNode(t, ports[1])

	for i, proto := range []Transport{TCP, UDP, UDT} {
		msg := &DataMsg{
			Hdr:     NewHeader(a.self, b.self, proto),
			Payload: []byte("hello " + proto.String()),
		}
		want := i + 1
		// Trigger from the app component's required port.
		a.appTrigger(msg)
		waitFor(t, "delivery over "+proto.String(), func() bool {
			return b.app.receivedCount() >= want
		})
	}

	b.app.mu.Lock()
	defer b.app.mu.Unlock()
	for _, m := range b.app.received {
		if !m.Hdr.Src.SameHostAs(a.self) {
			t.Fatalf("message source = %v, want %v", m.Hdr.Src, a.self)
		}
	}
}

// appTrigger asks the app component to publish e on its network port.
func (n *node) appTrigger(e kompics.Event) {
	n.app.comp.SelfTrigger(sendReq{e: e})
}

func TestNetworkNotifySuccess(t *testing.T) {
	ports := freePorts(t, 2)
	a := startNode(t, ports[0])
	b := startNode(t, ports[1])

	msg := &DataMsg{Hdr: NewHeader(a.self, b.self, TCP), Payload: []byte("notify me")}
	a.appTrigger(NotifyReq{ID: 77, Msg: msg})
	waitFor(t, "notify response", func() bool { return a.app.notifyCount() == 1 })
	a.app.mu.Lock()
	resp := a.app.notifies[0]
	a.app.mu.Unlock()
	if resp.ID != 77 || !resp.Sent() {
		t.Fatalf("notify = %+v", resp)
	}
	waitFor(t, "delivery", func() bool { return b.app.receivedCount() == 1 })
}

func TestNetworkNotifyFailure(t *testing.T) {
	ports := freePorts(t, 1)
	a := startNode(t, ports[0])
	dead := MustParseAddress("127.0.0.1:1")
	msg := &DataMsg{Hdr: NewHeader(a.self, dead, TCP), Payload: []byte("x")}
	a.appTrigger(NotifyReq{ID: 5, Msg: msg})
	waitFor(t, "failure notify", func() bool { return a.app.notifyCount() == 1 })
	a.app.mu.Lock()
	resp := a.app.notifies[0]
	a.app.mu.Unlock()
	if resp.Sent() {
		t.Fatal("send to dead port reported success")
	}
}

func TestNetworkLocalReflection(t *testing.T) {
	ports := freePorts(t, 1)
	a := startNode(t, ports[0])
	payload := make([]byte, 8)
	msg := &DataMsg{Hdr: NewHeader(a.self, a.self, TCP), Payload: payload}
	a.appTrigger(NotifyReq{ID: 1, Msg: msg})
	waitFor(t, "reflected delivery", func() bool { return a.app.receivedCount() == 1 })
	waitFor(t, "reflected notify", func() bool { return a.app.notifyCount() == 1 })

	a.app.mu.Lock()
	defer a.app.mu.Unlock()
	// Reflection must not serialise: the exact same instance arrives.
	if &a.app.received[0].Payload[0] != &payload[0] {
		t.Fatal("reflected message was copied (serialised)")
	}
	if !a.app.notifies[0].Sent() {
		t.Fatal("reflection notify failed")
	}
}

func TestNetworkRejectsDataProtocolWithoutInterceptor(t *testing.T) {
	ports := freePorts(t, 2)
	a := startNode(t, ports[0])
	b := startNode(t, ports[1])
	msg := &DataMsg{Hdr: NewHeader(a.self, b.self, DATA), Payload: []byte("x")}
	a.appTrigger(NotifyReq{ID: 9, Msg: msg})
	waitFor(t, "notify", func() bool { return a.app.notifyCount() == 1 })
	a.app.mu.Lock()
	defer a.app.mu.Unlock()
	if a.app.notifies[0].Sent() {
		t.Fatal("DATA message sent without an interceptor")
	}
}

func TestNetworkManyMessagesFIFOOverTCP(t *testing.T) {
	ports := freePorts(t, 2)
	a := startNode(t, ports[0])
	b := startNode(t, ports[1])
	const n = 100
	for i := 0; i < n; i++ {
		a.appTrigger(&DataMsg{
			Hdr:     NewHeader(a.self, b.self, TCP),
			Payload: []byte{byte(i)},
		})
	}
	waitFor(t, "all messages", func() bool { return b.app.receivedCount() == n })
	b.app.mu.Lock()
	defer b.app.mu.Unlock()
	for i, m := range b.app.received {
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order (payload %d)", i, m.Payload[0])
		}
	}
}

func TestNetworkLargeCompressibleMessage(t *testing.T) {
	ports := freePorts(t, 2)
	a := startNode(t, ports[0])
	b := startNode(t, ports[1])
	// 65 kB of compressible data exercises the flate path end to end.
	payload := make([]byte, 65<<10)
	for i := range payload {
		payload[i] = byte(i % 7)
	}
	a.appTrigger(&DataMsg{Hdr: NewHeader(a.self, b.self, TCP), Payload: payload})
	waitFor(t, "large delivery", func() bool { return b.app.receivedCount() == 1 })
	b.app.mu.Lock()
	defer b.app.mu.Unlock()
	got := b.app.received[0].Payload
	if len(got) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestNetworkAddrReporting(t *testing.T) {
	ports := freePorts(t, 1)
	a := startNode(t, ports[0])
	waitFor(t, "listeners", func() bool { return a.net.Addr(TCP) != "" })
	if a.net.Addr(UDP) == "" || a.net.Addr(UDT) == "" {
		t.Fatal("listeners not reported")
	}
}

func TestEncodeSkipsUselessCompression(t *testing.T) {
	// Incompressible payloads must ship raw (flag byte 0) — compressing
	// them would only add CPU and bytes; compressible ones ship with the
	// compressed flag.
	ports := freePorts(t, 1)
	n := startNode(t, ports[0]).net

	incompressible := make([]byte, 32<<10)
	rnd := rand.New(rand.NewSource(5))
	rnd.Read(incompressible)
	msg := &DataMsg{Hdr: NewHeader(n.cfg.Self.(BasicAddress), MustParseAddress("9.9.9.9:9"), TCP), Payload: incompressible}
	raw, err := n.encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != wireRaw {
		t.Fatal("incompressible payload was shipped compressed")
	}

	msg.Payload = make([]byte, 32<<10) // zeros compress perfectly
	packed, err := n.encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if packed[0] != wireCompressed {
		t.Fatal("compressible payload was not compressed")
	}
	if len(packed) >= len(raw) {
		t.Fatal("compressed frame not smaller")
	}
}

// countingFlate counts the payloads that reach the compressor.
type countingFlate struct {
	*codec.Flate
	calls int
}

func (c *countingFlate) AppendCompress(dst, src []byte) ([]byte, error) {
	c.calls++
	return c.Flate.AppendCompress(dst, src)
}

// TestWireRoundTrip takes messages through the path every remote message
// crosses without sockets: encode, frame, unframe, decodeWire. The payload
// must come back intact under both compressors, incompressible and
// compressible, at a control and a bulk size, at the edges of the
// compression floor and of the compressibility probe's sample, and with
// halves that the probe misjudges or judges right. Under flate, each payload must reach the compressor or
// skip it as the probe decides, and carry the wire flag it should.
func TestWireRoundTrip(t *testing.T) {
	self := MustParseAddress("10.0.0.1:1000")
	dest := MustParseAddress("10.0.0.2:2000")
	rnd := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		rnd.Read(b)
		return b
	}
	vocab := []string{"kompics", "messaging", "over", "tcp", "udt", "data", "notify", "channel", "frame", "peer"}
	words := func(n int) []byte {
		b := make([]byte, 0, n+16)
		for len(b) < n {
			b = append(append(b, vocab[rnd.Intn(len(vocab))]...), ' ')
		}
		return b[:n]
	}
	// edge and floor are the payload sizes at which a DataMsg's encoding,
	// flag byte excluded, fills exactly one sample and reaches exactly
	// the compression floor. Both take a two-byte length prefix, so one
	// probe measures the encoding's overhead for both.
	plain, err := NewNetwork(NetworkConfig{Self: self, Compressor: codec.Noop{}})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := plain.encode(&DataMsg{Hdr: NewHeader(self, dest, TCP), Payload: make([]byte, sampleSize)})
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(probe) - 1 - sampleSize
	edge, floor := sampleSize-overhead, minCompressSize-overhead
	bufpool.Put(probe)

	cases := []struct {
		name       string
		payload    []byte
		compressed bool // reaches the compressor, and ships compressed under flate
		flag       byte
	}{
		{"words, one byte under the floor", words(floor - 1), false, wireRaw},
		{"words, at the floor", words(floor), true, wireCompressed},
		{"random 1 KiB", random(1 << 10), true, wireRaw},
		{"words 1 KiB", words(1 << 10), true, wireCompressed},
		{"random 64 KiB", random(64 << 10), false, wireRaw},
		{"words 64 KiB", words(64 << 10), true, wireCompressed},
		{"random, one byte under a sample", random(edge - 1), true, wireRaw},
		{"random, one byte over a sample", random(edge + 1), false, wireRaw},
		{"random prefix, word tail", append(random(8<<10), words(56<<10)...), false, wireRaw},
		{"word prefix, random tail", append(words(8<<10), random(56<<10)...), true, wireCompressed},
	}
	for _, comp := range []codec.Compressor{codec.Noop{}, &countingFlate{Flate: codec.NewFlate(-1)}} {
		n, err := NewNetwork(NetworkConfig{Self: self, Compressor: comp})
		if err != nil {
			t.Fatal(err)
		}
		counter, _ := comp.(*countingFlate)
		for _, c := range cases {
			calls := 0
			if counter != nil {
				calls = counter.calls
			}
			msg := &DataMsg{Hdr: NewHeader(self, dest, TCP), Payload: c.payload}
			wire, err := n.encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			if counter != nil {
				if ran := counter.calls > calls; ran != c.compressed {
					t.Errorf("%s: compressor ran %v, want %v", c.name, ran, c.compressed)
				}
				if wire[0] != c.flag {
					t.Errorf("%s: wire flag %d, want %d", c.name, wire[0], c.flag)
				}
			}
			var frame bytes.Buffer
			if err := codec.WriteFrame(&frame, wire, 0); err != nil {
				t.Fatal(err)
			}
			bufpool.Put(wire)
			inbound, err := codec.ReadFrame(&frame, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := n.decodeWire(inbound)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.(*DataMsg).Payload, c.payload) {
				t.Fatalf("%s, %s: payload corrupted in round trip", comp.Name(), c.name)
			}
		}
	}
}

// TestDecodeWireRefusesInflationBomb hands decodeWire compressed frames
// that fit one frame but inflate past it: 64 MiB of zeros, and a
// well-formed DataMsg whose 2 MiB payload is zeros. Both must be refused
// with ErrValueOutOfBounds, not inflated and decoded.
func TestDecodeWireRefusesInflationBomb(t *testing.T) {
	self := MustParseAddress("10.0.0.1:1000")
	n, err := NewNetwork(NetworkConfig{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	// deflated returns what write produces as a compressed wire payload,
	// in a pooled buffer because decodeWire consumes its input.
	deflated := func(write func(io.Writer) error) []byte {
		var packed bytes.Buffer
		packed.WriteByte(wireCompressed)
		fw, err := flate.NewWriter(&packed, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(fw); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if packed.Len() > codec.DefaultMaxFrame {
			t.Fatalf("deflated payload is %d bytes, want it to fit one frame", packed.Len())
		}
		payload := bufpool.Get(packed.Len())
		copy(payload, packed.Bytes())
		return payload
	}
	zeros := make([]byte, 1<<20)
	bomb := deflated(func(w io.Writer) error {
		for i := 0; i < 64; i++ {
			if _, err := w.Write(zeros); err != nil {
				return err
			}
		}
		return nil
	})
	msg := &DataMsg{Hdr: NewHeader(self, MustParseAddress("10.0.0.2:2000"), TCP), Payload: make([]byte, 2<<20)}
	big := deflated(func(w io.Writer) error { return n.cfg.Registry.Encode(w, msg) })

	for name, payload := range map[string][]byte{"64 MiB of zeros": bomb, "2 MiB DataMsg": big} {
		if got, err := n.decodeWire(payload); !errors.Is(err, codec.ErrValueOutOfBounds) {
			t.Errorf("%s: decodeWire = %T, %v; want ErrValueOutOfBounds", name, got, err)
		}
	}
}

// TestNetworkRefusesOversizedMessage sends a DataMsg whose 2 MiB payload
// is zeros. It would deflate to a few KiB, but its serialised form is over
// one frame, so the sender fails it with transport.ErrTooLarge instead of
// shipping what the receiver's Decompress would refuse.
func TestNetworkRefusesOversizedMessage(t *testing.T) {
	ports := freePorts(t, 2)
	a := startNode(t, ports[0])
	b := startNode(t, ports[1])
	msg := &DataMsg{Hdr: NewHeader(a.self, b.self, TCP), Payload: make([]byte, 2<<20)}
	a.appTrigger(NotifyReq{ID: 9, Msg: msg})
	waitFor(t, "notify response", func() bool { return a.app.notifyCount() == 1 })
	a.app.mu.Lock()
	resp := a.app.notifies[0]
	a.app.mu.Unlock()
	if resp.ID != 9 || !errors.Is(resp.Err, transport.ErrTooLarge) {
		t.Fatalf("notify = %+v, want a failure wrapping transport.ErrTooLarge", resp)
	}
}
