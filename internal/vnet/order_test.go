//kmlint:ignore-file simdet this file deliberately crosses the sim boundary: it validates ordering against real OS sockets and wall-clock pacing

package vnet

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// TestVNodeOrderAcrossCodecStage audits the vnet layer against the
// parallel send path: two vnodes behind one remote endpoint share a codec
// lane (the lane key is the host socket, not the vnode ID), so interleaved
// traffic to both vnodes must arrive in per-vnode submission order even
// while encode runs on the stage's workers. Run under -race in CI.
func TestVNodeOrderAcrossCodecStage(t *testing.T) {
	const perVNode = 120
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

	sendPort, recvPort := freeTestPort(t), freeTestPort(t)
	sendNet, sendSys := mkNet(sendPort)
	recvNet, recvSys := mkNet(recvPort)

	sender := &vnodeApp{}
	sendComp := sendSys.Create(sender)
	kompics.MustConnect(sendNet.Port(), sender.port)
	sendSys.Start(sendComp)

	vA, vB := &vnodeApp{}, &vnodeApp{}
	aComp, bComp := recvSys.Create(vA), recvSys.Create(vB)
	kompics.MustConnect(recvNet.Port(), vA.port,
		kompics.WithIndicationSelector(Selector([]byte("a"))))
	kompics.MustConnect(recvNet.Port(), vB.port,
		kompics.WithIndicationSelector(Selector([]byte("b"))))
	recvSys.Start(aComp)
	recvSys.Start(bComp)

	src := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", sendPort))
	recvHost := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", recvPort))
	for seq := uint32(0); seq < perVNode; seq++ {
		for _, id := range []string{"a", "b"} {
			payload := make([]byte, 16)
			binary.BigEndian.PutUint32(payload, seq)
			sender.comp.SelfTrigger(vnodeSend{e: &Msg{
				Src:     NewAddress(src, nil),
				Dst:     NewAddress(recvHost, []byte(id)),
				Proto:   core.TCP,
				Payload: payload,
			}})
		}
	}

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && (vA.count() < perVNode || vB.count() < perVNode) {
		time.Sleep(2 * time.Millisecond)
	}
	for name, app := range map[string]*vnodeApp{"a": vA, "b": vB} {
		app.mu.Lock()
		got := append([]*Msg(nil), app.received...)
		app.mu.Unlock()
		if len(got) != perVNode {
			t.Fatalf("vnode %s received %d of %d messages", name, len(got), perVNode)
		}
		for j, m := range got {
			if s := binary.BigEndian.Uint32(m.Payload); s != uint32(j) {
				t.Fatalf("vnode %s position %d: got seq %d, want %d — per-vnode order violated", name, j, s, j)
			}
		}
	}
}
