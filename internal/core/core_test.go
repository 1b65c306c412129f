package core

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"testing/quick"

	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// --- Transport -----------------------------------------------------------------

func TestTransportStringAndPredicates(t *testing.T) {
	tests := []struct {
		tr    Transport
		str   string
		valid bool
		wire  bool
	}{
		{UDP, "UDP", true, true},
		{TCP, "TCP", true, true},
		{UDT, "UDT", true, true},
		{DATA, "DATA", true, false},
		{Transport(0), "Transport(0)", false, false},
		{Transport(9), "Transport(9)", false, false},
	}
	for _, tt := range tests {
		if got := tt.tr.String(); got != tt.str {
			t.Errorf("String() = %q, want %q", got, tt.str)
		}
		if got := tt.tr.Valid(); got != tt.valid {
			t.Errorf("%v.Valid() = %v", tt.tr, got)
		}
		if got := tt.tr.Wire(); got != tt.wire {
			t.Errorf("%v.Wire() = %v", tt.tr, got)
		}
	}
}

// --- Address ---------------------------------------------------------------------

// hostnameAddress has no IP form: the network formats it per message.
type hostnameAddress struct{ host string }

func (a hostnameAddress) IP() net.IP                { return nil }
func (a hostnameAddress) Port() int                 { return 7000 }
func (a hostnameAddress) AsSocket() string          { return a.host + ":7000" }
func (a hostnameAddress) SameHostAs(o Address) bool { return false }

// TestWireDestCache checks the per-destination wire string cache: cached
// strings equal AsSocket's (UDT's shifted by transport.UDTPortOffset), a
// hit allocates nothing, an address without an IP form is never cached,
// and the cache stays bounded.
func TestWireDestCache(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Self: MustParseAddress("127.0.0.1:1")})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []Address{
		MustParseAddress("10.0.0.1:5000"),
		NewAddress(net.ParseIP("10.0.0.1"), 5000), // 16-byte form, same key
		MustParseAddress("[::1]:7000"),
		MustParseAddress("10.0.0.2:0"), // ephemeral: no UDT shift
	}
	for _, a := range addrs {
		for _, proto := range []Transport{TCP, UDP, UDT} {
			want := a.AsSocket()
			if proto == UDT && a.Port() != 0 {
				want = net.JoinHostPort(a.IP().String(), fmt.Sprint(a.Port()+transport.UDTPortOffset))
			}
			for pass := 0; pass < 2; pass++ { // miss, then hit
				got, err := n.wireDest(a, proto)
				if err != nil || got != want {
					t.Fatalf("wireDest(%v, %v) pass %d = %q, %v; want %q", a, proto, pass, got, err, want)
				}
			}
		}
	}
	if got, want := len(n.dests), 3*(len(addrs)-1); got != want {
		t.Fatalf("cache holds %d entries, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.wireDest(addrs[0], UDT) }); allocs != 0 {
		t.Fatalf("cached wireDest allocates %v times", allocs)
	}

	host := hostnameAddress{host: "node.example"}
	if got, err := n.wireDest(host, TCP); err != nil || got != host.AsSocket() {
		t.Fatalf("hostname address over TCP = %q, %v", got, err)
	}
	if got, err := n.wireDest(host, UDT); err != nil || got != "node.example:"+fmt.Sprint(7000+transport.UDTPortOffset) {
		t.Fatalf("hostname address over UDT = %q, %v", got, err)
	}
	if got, want := len(n.dests), 3*(len(addrs)-1); got != want {
		t.Fatalf("hostname address was cached: %d entries, want %d", got, want)
	}

	for i := 0; i <= maxDestCache; i++ {
		n.wireDest(NewAddress(net.IPv4(10, 1, byte(i>>8), byte(i)), 4000), TCP)
	}
	if len(n.dests) > maxDestCache {
		t.Fatalf("cache grew to %d entries, bound %d", len(n.dests), maxDestCache)
	}
}

func TestParseAddress(t *testing.T) {
	a, err := ParseAddress("127.0.0.1:8080")
	if err != nil {
		t.Fatal(err)
	}
	if a.Port() != 8080 || !a.IP().Equal(net.IPv4(127, 0, 0, 1)) {
		t.Fatalf("parsed %v", a)
	}
	if a.AsSocket() != "127.0.0.1:8080" {
		t.Fatalf("AsSocket() = %q", a.AsSocket())
	}
	if a.String() != a.AsSocket() || a.Key() != a.AsSocket() {
		t.Fatal("String/Key disagree with AsSocket")
	}
	if _, err := ParseAddress("nonsense"); err == nil {
		t.Fatal("parsed nonsense address")
	}
	if _, err := ParseAddress("1.2.3.4:99999"); err == nil {
		t.Fatal("parsed out-of-range port")
	}
}

func TestMustParseAddressPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddress did not panic")
		}
	}()
	MustParseAddress("bad")
}

func TestSameHostAs(t *testing.T) {
	a := MustParseAddress("10.0.0.1:100")
	b := MustParseAddress("10.0.0.1:100")
	c := MustParseAddress("10.0.0.1:101")
	d := MustParseAddress("10.0.0.2:100")
	if !a.SameHostAs(b) {
		t.Fatal("identical addresses not same host")
	}
	if a.SameHostAs(c) || a.SameHostAs(d) {
		t.Fatal("different addresses considered same host")
	}
	if a.SameHostAs(nil) {
		t.Fatal("nil considered same host")
	}
}

func TestAddressEqualIPv4vsIPv6Form(t *testing.T) {
	v4 := NewAddress(net.IPv4(1, 2, 3, 4), 9)
	v4in16 := NewAddress(net.IPv4(1, 2, 3, 4).To16(), 9)
	if !v4.Equal(v4in16) {
		t.Fatal("IPv4 in 4- and 16-byte form not equal")
	}
	if !v4.SameHostAs(v4in16) {
		t.Fatal("SameHostAs fails across IP forms")
	}
}

func TestNewAddressCopiesIP(t *testing.T) {
	ip := net.IPv4(9, 9, 9, 9)
	a := NewAddress(ip, 1)
	ip[len(ip)-1] = 8
	if a.IP().Equal(net.IPv4(9, 9, 9, 8)) {
		t.Fatal("NewAddress aliased the caller's IP slice")
	}
}

// --- headers ---------------------------------------------------------------------

func TestBasicHeader(t *testing.T) {
	src := MustParseAddress("10.0.0.1:1")
	dst := MustParseAddress("10.0.0.2:2")
	h := NewHeader(src, dst, TCP)
	if !h.Source().SameHostAs(src) || !h.Destination().SameHostAs(dst) {
		t.Fatal("header endpoints wrong")
	}
	if h.Protocol() != TCP {
		t.Fatal("protocol wrong")
	}
	h2 := h.WithProtocol(UDT)
	if h.Protocol() != TCP || h2.Protocol() != UDT {
		t.Fatal("WithProtocol must not mutate the original")
	}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestRoutingHeaderDirectWhenNoRoute(t *testing.T) {
	src := MustParseAddress("10.0.0.1:1")
	dst := MustParseAddress("10.0.0.2:2")
	h := RoutingHeader{Base: NewHeader(src, dst, TCP)}
	if !h.Source().SameHostAs(src) || !h.Destination().SameHostAs(dst) {
		t.Fatal("routing header without route must behave like base")
	}
	if _, ok := h.Advance(); ok {
		t.Fatal("Advance succeeded without route")
	}
	if !h.FinalDestination().SameHostAs(dst) {
		t.Fatal("FinalDestination wrong")
	}
}

func TestRoutingHeaderMultiHop(t *testing.T) {
	origin := MustParseAddress("10.0.0.1:1")
	hop1 := MustParseAddress("10.0.0.2:2")
	hop2 := MustParseAddress("10.0.0.3:3")
	final := MustParseAddress("10.0.0.4:4")

	h := RoutingHeader{
		Base: NewHeader(origin, hop1, TCP),
		Route: &Route{
			Origin: origin,
			Hops:   []Address{hop1, hop2, final},
		},
	}
	// First hop: destination is hop1; source stays the origin so the
	// final receiver can reply directly (listing 5's replyTo idea).
	if !h.Destination().SameHostAs(hop1) {
		t.Fatalf("first destination = %v", h.Destination())
	}
	if !h.Source().SameHostAs(origin) {
		t.Fatalf("source = %v, want origin", h.Source())
	}
	if !h.FinalDestination().SameHostAs(final) {
		t.Fatal("final destination wrong")
	}

	h2, ok := h.Advance()
	if !ok {
		t.Fatal("Advance failed with hops remaining")
	}
	if !h2.Destination().SameHostAs(hop2) || !h2.Source().SameHostAs(origin) {
		t.Fatalf("second hop routing wrong: %v from %v", h2.Destination(), h2.Source())
	}
	h3, ok := h2.Advance()
	if !ok || !h3.Destination().SameHostAs(final) {
		t.Fatal("third hop routing wrong")
	}
	if _, ok := h3.Advance(); ok {
		t.Fatal("Advance past the final hop succeeded")
	}
}

func TestDataMsg(t *testing.T) {
	m := &DataMsg{
		Hdr:     NewHeader(MustParseAddress("1.1.1.1:1"), MustParseAddress("2.2.2.2:2"), UDP),
		Payload: []byte{1, 2, 3},
	}
	if m.Size() != 3 {
		t.Fatalf("Size() = %d", m.Size())
	}
	if m.Header().Protocol() != UDP {
		t.Fatal("header accessor broken")
	}
}

// --- serialisation ---------------------------------------------------------------

func TestAddressSerialization(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:80", "[::1]:9000", "10.1.2.3:65535"} {
		a := MustParseAddress(addr)
		var buf bytes.Buffer
		if err := WriteAddress(&buf, a); err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		got, err := ReadAddress(&buf)
		if err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		if !got.SameHostAs(a) {
			t.Fatalf("%s round-tripped to %v", addr, got)
		}
	}
}

func TestReadAddressRejectsBadPort(t *testing.T) {
	var buf bytes.Buffer
	a := MustParseAddress("1.2.3.4:5")
	if err := WriteAddress(&buf, a); err != nil {
		t.Fatal(err)
	}
	// Manually write an oversized port.
	var bad bytes.Buffer
	bad.Write(buf.Bytes()[:1+16]) // length prefix + ip
	bad.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := ReadAddress(&bad); err == nil {
		t.Fatal("accepted port > 65535")
	}
}

func TestDataMsgSerialization(t *testing.T) {
	reg := NewRegistry()
	in := &DataMsg{
		Hdr:     NewHeader(MustParseAddress("10.0.0.1:100"), MustParseAddress("10.0.0.2:200"), UDT),
		Payload: bytes.Repeat([]byte{0xAB}, 1000),
	}
	var buf bytes.Buffer
	if err := reg.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := v.(*DataMsg)
	if !ok {
		t.Fatalf("decoded %T", v)
	}
	if !out.Hdr.Src.SameHostAs(in.Hdr.Src) || !out.Hdr.Dst.SameHostAs(in.Hdr.Dst) {
		t.Fatal("header corrupted")
	}
	if out.Hdr.Proto != UDT || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatal("message corrupted")
	}
}

func TestDataMsgSerializerRejectsWrongType(t *testing.T) {
	var buf bytes.Buffer
	if err := (DataMsgSerializer{}).Serialize(&buf, 42); err == nil {
		t.Fatal("serialized non-DataMsg")
	}
}

func TestHeaderSerializationRejectsInvalidTransport(t *testing.T) {
	var buf bytes.Buffer
	h := NewHeader(MustParseAddress("1.1.1.1:1"), MustParseAddress("2.2.2.2:2"), TCP)
	if err := WriteBasicHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 0x7F // clobber the transport byte
	if _, err := ReadBasicHeader(bytes.NewReader(raw)); err == nil {
		t.Fatal("accepted invalid transport from wire")
	}
}

func TestPropertyDataMsgRoundTrip(t *testing.T) {
	reg := NewRegistry()
	f := func(payload []byte, srcPort, dstPort uint16, proto uint8) bool {
		tr := Transport(int(proto)%3 + 1) // UDP, TCP or UDT
		in := &DataMsg{
			Hdr: NewHeader(
				NewAddress(net.IPv4(1, 2, 3, 4), int(srcPort)),
				NewAddress(net.IPv4(5, 6, 7, 8), int(dstPort)),
				tr,
			),
			Payload: payload,
		}
		var buf bytes.Buffer
		if reg.Encode(&buf, in) != nil {
			return false
		}
		v, err := reg.Decode(&buf)
		if err != nil {
			return false
		}
		out := v.(*DataMsg)
		return out.Hdr.Proto == tr &&
			out.Hdr.Src.Port() == int(srcPort) &&
			out.Hdr.Dst.Port() == int(dstPort) &&
			bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
