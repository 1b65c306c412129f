package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/data"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// node is one middleware instance: its own component system, a
// core.Network listening on loopback, and the benchmark's app on top.
type node struct {
	addr  core.BasicAddress
	sys   *kompics.System
	net   *core.Network
	comps []*kompics.Component // in creation order
}

// rig is a workload ready to measure: two nodes booted, components wired,
// payloads built, traffic running and every connection it needs established.
type rig struct {
	spec   *workloadSpec
	nodes  [2]*node // sending, receiving
	tx, rx *app
	pacer  *pacer

	episodes, episodeDrops atomic.Uint64 // DATA interceptor episodes seen, and messages they report dropped
}

// freePort finds a port p with TCP p, UDP p and UDP p+1 (the UDT listener)
// all unbound, by binding them.
func freePort() (int, error) {
	for try := 0; try < 100; try++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		p := l.Addr().(*net.TCPAddr).Port
		l.Close()
		if p < 65535 && udpFree(p) && udpFree(p+1) {
			return p, nil
		}
	}
	return 0, errors.New("benchmark: no free loopback port pair found")
}

func udpFree(port int) bool {
	c, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return false
	}
	c.Close()
	return true
}

func bootNode(reg *codec.Registry, comp codec.Compressor) (*node, error) {
	// The port probe can lose a race against another process; try again on
	// a bind failure rather than fail the run.
	var err error
	for try := 0; try < 5; try++ {
		var port int
		if port, err = freePort(); err != nil {
			return nil, err
		}
		addr := core.MustParseAddress(fmt.Sprintf("127.0.0.1:%d", port))
		var netDef *core.Network
		netDef, err = core.NewNetwork(core.NetworkConfig{Self: addr, Registry: reg, Compressor: comp})
		if err != nil {
			return nil, err
		}
		n := &node{addr: addr, sys: kompics.NewSystem(), net: netDef}
		n.start(netDef)
		n.sys.AwaitQuiescence()
		if netDef.Addr(core.TCP) != "" && netDef.Addr(core.UDT) != "" {
			return n, nil
		}
		err = fmt.Errorf("benchmark: listeners on %v did not come up", addr)
		n.close()
	}
	return nil, err
}

func (n *node) start(def kompics.Definition) *kompics.Component {
	c := n.sys.Create(def)
	n.comps = append(n.comps, c)
	n.sys.Start(c)
	return c
}

// close kills the node's components top down (the network's kill closes its
// endpoint and waits for the socket goroutines) and stops the scheduler.
func (n *node) close() {
	for i := len(n.comps) - 1; i >= 0; i-- {
		n.sys.Kill(n.comps[i])
	}
	n.sys.AwaitQuiescence()
	n.sys.Shutdown()
}

// setup boots a rig and returns how long that took, from nothing to the
// moment every flow has delivered (and, where it asks for echoes, been
// answered) once: nodes up, listeners bound, payload pools generated from
// seed, lazy dials and the UDT handshake done. tr, when not nil, wraps the
// serializer and the compressor in the traced pass's decorators.
func setup(spec *workloadSpec, seed int64, tr *tracer) (*rig, time.Duration, error) {
	began := time.Now()
	r := &rig{spec: spec}

	var ser codec.Serializer = benchSerializer{}
	if tr != nil {
		ser = tracedSerializer{tr: tr}
	}
	reg := core.NewRegistry()
	reg.MustRegister(ser, (*benchMsg)(nil))
	for i := range r.nodes {
		comp := spec.compressor()
		if tr != nil {
			comp = traceCompressor(comp, tr)
		}
		n, err := bootNode(reg, comp)
		if err != nil {
			r.close()
			return nil, 0, err
		}
		r.nodes[i] = n
	}
	src, dst := r.nodes[0], r.nodes[1]

	rng := rand.New(rand.NewSource(seed))
	flows := make([]*flow, len(spec.flows))
	txWaits, rxWaits := map[laneKey]bool{}, map[laneKey]bool{}
	for i, fs := range spec.flows {
		flows[i] = newFlow(i, fs, buildPool(rng, fs.size, fs.compressible), src.addr, dst.addr)
		lanes := []core.Transport{fs.proto}
		if fs.proto == core.DATA {
			lanes = []core.Transport{core.TCP, core.UDT}
		}
		for _, p := range lanes {
			rxWaits[laneKey{uint8(i), p}] = true
			if fs.echoEvery > 0 {
				txWaits[laneKey{uint8(i), p}] = true
			}
		}
	}
	r.tx = newApp(src.addr, flows, tr, txWaits)
	r.rx = newApp(dst.addr, nil, tr, rxWaits)

	below := src.net.Port()
	if spec.usesData() {
		// Static 1:1 with pattern selection: the learner's exploration would
		// make goodput irreproducible (its decisions are measured on netsim).
		dn, err := data.NewDataNetwork(data.NetworkConfig{
			NewPRP: func() data.ProtocolRatioPolicy { return data.StaticRatio{R: data.MustRatio(1, 2)} },
			OnEpisode: func(_ string, st data.EpisodeStats, _ data.Ratio) {
				r.episodes.Add(1)
				r.episodeDrops.Add(uint64(st.MsgsDropped))
			},
		})
		if err != nil {
			r.close()
			return nil, 0, err
		}
		src.start(dn)
		kompics.MustConnect(below, dn.Required())
		below = dn.Provided()
	}
	src.start(r.tx)
	kompics.MustConnect(below, r.tx.port)
	dst.start(r.rx)
	kompics.MustConnect(dst.net.Port(), r.rx.port)

	r.tx.comp.SelfTrigger(startEv{})
	r.pacer = startPacer(r.tx)
	timeout := time.After(10 * time.Second)
	for _, primed := range []chan struct{}{r.rx.primed, r.tx.primed} {
		select {
		case <-primed:
		case <-timeout:
			r.close()
			return nil, 0, fmt.Errorf("benchmark: %s: first deliveries did not arrive within 10 s", spec.name)
		}
	}
	return r, time.Since(began), nil
}

// marks is one instant's reading of everything the end-to-end metrics are
// computed from.
type marks struct {
	tx, rx counters
	cpuNS  int64 // process user+system CPU so far
}

func (r *rig) mark() marks {
	return marks{cpuNS: cpuNS(), tx: r.tx.mark(), rx: r.rx.mark()}
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// drain stops the generators and waits until every send has resolved, every
// sent message has been delivered and every requested echo is back. It
// returns the final marks; what did not arrive in time shows as a difference
// between their counts.
func (r *rig) drain() marks {
	r.pacer.halt()
	r.tx.comp.SelfTrigger(stopEv{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := r.mark()
		done := m.tx.sentOK+m.tx.sentErr == m.tx.attempted &&
			m.rx.delivered >= m.tx.sentOK && m.tx.echoGot >= m.tx.echoAsked
		if done || time.Now().After(deadline) {
			return m
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *rig) close() {
	for _, n := range r.nodes {
		if n != nil {
			n.close()
		}
	}
}

// failures counts what the final marks show went wrong, per the issue's
// definition: failed sends, sent messages never delivered, echoes never
// returned, and deliveries that failed the checksum or the FIFO check.
func (m marks) failures() uint64 {
	f := m.tx.sentErr + m.tx.stalls +
		m.tx.corrupt + m.tx.misordered + m.rx.corrupt + m.rx.misordered
	f += m.tx.attempted - (m.tx.sentOK + m.tx.sentErr) // never resolved
	if m.tx.sentOK > m.rx.delivered {
		f += m.tx.sentOK - m.rx.delivered
	}
	if m.tx.echoAsked > m.tx.echoGot {
		f += m.tx.echoAsked - m.tx.echoGot
	}
	return f
}
