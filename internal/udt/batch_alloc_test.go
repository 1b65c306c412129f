//go:build linux && (amd64 || arm64) && !race

// Allocation counts are meaningless under the race detector, so this
// file is left out of -race builds.

package udt

import (
	"net"
	"net/netip"
	"testing"
)

// TestBatchSyscallsAllocateNothing pins the batched UDP path's per-call
// cost: one sendmmsg burst and the recvmmsg calls that drain it, over
// loopback, allocate nothing once the sender and reader are built.
func TestBatchSyscallsAllocateNothing(t *testing.T) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	tx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	rx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	s := newMmsgSender(tx, rx.LocalAddr().(*net.UDPAddr).AddrPort(), false)
	r := newBatchReader(rx)
	if s == nil || r == nil {
		t.Skip("batched syscalls disabled")
	}
	pkts := make([][]byte, 8)
	for i := range pkts {
		pkts[i] = make([]byte, 1400)
		pkts[i][0] = byte(i)
	}
	want := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), tx.LocalAddr().(*net.UDPAddr).AddrPort().Port())
	burst := func() {
		if !s.send(pkts) {
			t.Fatal("sendmmsg failed")
		}
		for got := 0; got < len(pkts); {
			n, err := r.read()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if p := r.payload(i); len(p) != 1400 || p[0] != byte(got+i) {
					t.Fatalf("datagram %d: len %d, first byte %d", got+i, len(p), p[0])
				}
				if a := r.addr(i); a != want {
					t.Fatalf("datagram %d from %v, want %v", got+i, a, want)
				}
			}
			got += n
		}
	}
	burst() // warm the poller
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Errorf("%.1f allocations per batched send and read, want 0", allocs)
	}
}
