//kmlint:ignore-file simdet this file deliberately crosses the sim boundary: it validates fan-in ordering against real OS sockets and wall-clock pacing

package vnet

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// TestVNodeFaninAcrossDecodeStage audits the vnet layer against the
// parallel receive path: M sender hosts fan in to one receiver whose two
// vnodes share every inbound connection, and so that connection's read
// loop, which decodes its frames (the ordering unit is the origin
// socket, not the vnode ID). Each (sender, vnode) stream must arrive in
// submission order even while frames from different senders decode
// concurrently. Run under -race in CI.
func TestVNodeFaninAcrossDecodeStage(t *testing.T) {
	const (
		senders  = 3
		perVNode = 80
	)
	reg := core.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}

	mkNet := func(port int) (*core.Network, *kompics.System) {
		self := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
		netDef, err := core.NewNetwork(core.NetworkConfig{Self: self, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		sys := kompics.NewSystem()
		t.Cleanup(sys.Shutdown)
		netComp := sys.Create(netDef)
		sys.Start(netComp)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && netDef.Addr(core.TCP) == "" {
			time.Sleep(time.Millisecond)
		}
		if netDef.Addr(core.TCP) == "" {
			t.Fatal("listeners did not come up")
		}
		return netDef, sys
	}

	recvPort := freeTestPort(t)
	recvNet, recvSys := mkNet(recvPort)
	vA, vB := &vnodeApp{}, &vnodeApp{}
	aComp, bComp := recvSys.Create(vA), recvSys.Create(vB)
	kompics.MustConnect(recvNet.Port(), vA.port,
		kompics.WithIndicationSelector(Selector([]byte("a"))))
	kompics.MustConnect(recvNet.Port(), vB.port,
		kompics.WithIndicationSelector(Selector([]byte("b"))))
	recvSys.Start(aComp)
	recvSys.Start(bComp)
	recvHost := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", recvPort))

	srcs := make([]core.BasicAddress, senders)
	for i := 0; i < senders; i++ {
		port := freeTestPort(t)
		sendNet, sendSys := mkNet(port)
		app := &vnodeApp{}
		comp := sendSys.Create(app)
		kompics.MustConnect(sendNet.Port(), app.port)
		sendSys.Start(comp)
		src := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
		srcs[i] = src

		go func(app *vnodeApp, src core.BasicAddress) {
			for seq := uint32(0); seq < perVNode; seq++ {
				for _, id := range []string{"a", "b"} {
					payload := make([]byte, 64)
					binary.BigEndian.PutUint32(payload, seq)
					app.comp.SelfTrigger(vnodeSend{e: &Msg{
						Src:     NewAddress(src, nil),
						Dst:     NewAddress(recvHost, []byte(id)),
						Proto:   core.TCP,
						Payload: payload,
					}})
				}
			}
		}(app, src)
	}

	total := senders * perVNode
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && (vA.count() < total || vB.count() < total) {
		time.Sleep(2 * time.Millisecond)
	}
	for name, app := range map[string]*vnodeApp{"a": vA, "b": vB} {
		app.mu.Lock()
		got := append([]*Msg(nil), app.received...)
		app.mu.Unlock()
		if len(got) != total {
			t.Fatalf("vnode %s received %d of %d messages", name, len(got), total)
		}
		bySender := make(map[string][]uint32)
		for _, m := range got {
			key := m.Src.AsSocket()
			bySender[key] = append(bySender[key], binary.BigEndian.Uint32(m.Payload))
		}
		if len(bySender) != senders {
			t.Fatalf("vnode %s saw %d senders, want %d", name, len(bySender), senders)
		}
		for src, seqs := range bySender {
			if len(seqs) != perVNode {
				t.Fatalf("vnode %s sender %s: %d of %d messages", name, src, len(seqs), perVNode)
			}
			for j, s := range seqs {
				if s != uint32(j) {
					t.Fatalf("vnode %s sender %s position %d: got seq %d, want %d — per-(sender, vnode) order violated on the receive path", name, src, j, s, j)
				}
			}
		}
	}
}
