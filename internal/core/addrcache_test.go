package core

import (
	"bytes"
	"io"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"testing/iotest"
)

// TestHeaderCodecAllocFreeOnCacheHit: a BasicHeader between IPv4 peers
// encodes into a grown buffer, and decodes once its addresses are cached,
// without a heap allocation.
func TestHeaderCodecAllocFreeOnCacheHit(t *testing.T) {
	h := NewHeader(MustParseAddress("10.0.0.1:1000"), MustParseAddress("10.0.0.2:2000"), TCP)
	var buf bytes.Buffer
	if err := WriteBasicHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	if allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := WriteBasicHeader(&buf, h); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteBasicHeader: %v allocations per call, want 0", allocs)
	}
	r := bytes.NewReader(wire)
	if _, err := ReadBasicHeader(r); err != nil { // fills the cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset(wire)
		if _, err := ReadBasicHeader(r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadBasicHeader: %v allocations per call on a cache hit, want 0", allocs)
	}
}

// TestAddrCacheDecodesLikeReadAddress: IPv4, IPv6 and IPv4-mapped
// addresses decode through the cache to exactly what ReadAddress gives,
// from a *bytes.Reader (the cached path) and from any other reader.
func TestAddrCacheDecodesLikeReadAddress(t *testing.T) {
	for _, a := range []Address{
		MustParseAddress("192.0.2.7:4000"),
		MustParseAddress("[2001:db8::1]:65535"),
		NewAddress(net.ParseIP("::ffff:198.51.100.9"), 0),
	} {
		var buf bytes.Buffer
		if err := WriteAddress(&buf, a); err != nil {
			t.Fatal(err)
		}
		want, err := ReadAddress(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.IP()) != net.IPv6len || !want.IP().Equal(a.IP()) || want.Port() != a.Port() {
			t.Fatalf("%v: ReadAddress gave %v", a, want)
		}
		for _, r := range []io.Reader{
			bytes.NewReader(buf.Bytes()),
			bytes.NewReader(buf.Bytes()), // second time from the cache
			iotest.OneByteReader(bytes.NewReader(buf.Bytes())),
		} {
			got, err := readCachedAddress(r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, Address(want)) {
				t.Errorf("%v: cached decode %#v, ReadAddress %#v", a, got, want)
			}
		}
	}
}

// TestAddrCacheResetsPastBound: the cache holds at most maxAddrCache
// addresses and starts over when one more arrives.
func TestAddrCacheResetsPastBound(t *testing.T) {
	addrCache.mu.Lock()
	addrCache.m = nil
	addrCache.mu.Unlock()
	size := func() int {
		addrCache.mu.RLock()
		defer addrCache.mu.RUnlock()
		return len(addrCache.m)
	}
	ip := netip.MustParseAddr("::ffff:10.1.0.0")
	for i := 0; i < maxAddrCache; i++ {
		cachedAddress(netip.AddrPortFrom(ip, uint16(i)))
	}
	if n := size(); n != maxAddrCache {
		t.Fatalf("cache holds %d addresses after %d distinct ones", n, maxAddrCache)
	}
	a := cachedAddress(netip.AddrPortFrom(ip, maxAddrCache))
	if n := size(); n != 1 {
		t.Fatalf("cache holds %d addresses past its bound, want a reset to 1", n)
	}
	if b := cachedAddress(netip.AddrPortFrom(ip, maxAddrCache)); !reflect.DeepEqual(a, b) || b.Port() != maxAddrCache {
		t.Fatalf("cache hit after reset gave %v, want %v", b, a)
	}
}
