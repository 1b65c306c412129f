package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/data"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
	"github.com/kompics/kompicsmessaging-go/internal/udt"
)

// The layer probes drive one layer at a time through its public API, with
// nothing of the other layers underneath, so a layer's own cost can be told
// from what the stack adds around it.

// probePort carries the kompics probe's ping-pong.
type (
	probePing struct{}
	probePong struct{}
)

var probePort = kompics.NewPortType("BenchProbe").Request(probePing{}).Indication(probePong{})

// bouncer provides probePort and answers every ping; counter requires it
// and answers every pong, counting.
type bouncer struct{ port *kompics.Port }

func (b *bouncer) Init(ctx *kompics.Context) {
	b.port = ctx.Provides(probePort)
	ctx.Subscribe(b.port, probePing{}, func(kompics.Event) { ctx.Trigger(probePong{}, b.port) })
}

type counter struct {
	port   *kompics.Port
	events atomic.Uint64
	stop   atomic.Bool
}

func (c *counter) Init(ctx *kompics.Context) {
	c.port = ctx.Requires(probePort)
	ctx.Subscribe(c.port, probePong{}, func(kompics.Event) {
		c.events.Add(2) // a ping and a pong were dispatched
		if !c.stop.Load() {
			ctx.Trigger(probePing{}, c.port)
		}
	})
	ctx.SubscribeSelf(startEv{}, func(kompics.Event) { ctx.Trigger(probePing{}, c.port) })
}

// probeKompics returns ns per Trigger→handler between two components of one
// system, one event in flight.
func probeKompics(d time.Duration) float64 {
	sys := kompics.NewSystem()
	defer sys.Shutdown()
	b, c := &bouncer{}, &counter{}
	bc, cc := sys.Create(b), sys.Create(c)
	kompics.MustConnect(b.port, c.port)
	sys.Start(bc)
	sys.Start(cc)
	began := time.Now()
	cc.SelfTrigger(startEv{})
	time.Sleep(d)
	c.stop.Store(true)
	sys.AwaitQuiescence()
	return float64(time.Since(began)) / float64(max(c.events.Load(), 1))
}

// probeEndpoint drives two bare transport.Endpoints with opaque payloads of
// the given size: first one outstanding (Send→OnMessage latency), then a
// window of 64 (ns per message at rate).
func probeEndpoint(proto core.Transport, size int, d time.Duration) (rttNS, perMsgNS float64, err error) {
	got := make(chan struct{}, 1<<16) // one token per delivery; larger than any window
	sink, err := transport.NewEndpoint(transport.Config{
		ListenAddr: "127.0.0.1:0", Protocols: []core.Transport{proto},
		OnMessage: func(_ transport.From, p []byte) {
			bufpool.Put(p)
			got <- struct{}{}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	if err := sink.Start(); err != nil {
		return 0, 0, err
	}
	defer sink.Close()
	src, err := transport.NewEndpoint(transport.Config{
		ListenAddr: "127.0.0.1:0", Protocols: []core.Transport{proto},
		OnMessage: func(_ transport.From, p []byte) { bufpool.Put(p) },
	})
	if err != nil {
		return 0, 0, err
	}
	if err := src.Start(); err != nil {
		return 0, 0, err
	}
	defer src.Close()
	dest := sink.Addr(proto)

	var sendErr atomic.Value
	send := func() {
		src.Send(proto, dest, bufpool.Get(size), func(err error) {
			if err != nil {
				sendErr.Store(err)
			}
		})
	}
	await := func() bool {
		select {
		case <-got:
			return true
		case <-time.After(5 * time.Second):
			return false
		}
	}
	run := func(window int) (float64, error) {
		for i := 0; i < window; i++ {
			send()
		}
		n := 0
		began := time.Now()
		for time.Since(began) < d/2 {
			if !await() {
				return 0, fmt.Errorf("benchmark: endpoint probe stalled (%v)", sendErr.Load())
			}
			n++
			send()
		}
		took := time.Since(began)
		for i := 0; i < window; i++ {
			if !await() {
				return 0, fmt.Errorf("benchmark: endpoint probe lost messages (%v)", sendErr.Load())
			}
		}
		return float64(took) / float64(max(n, 1)), nil
	}
	if rttNS, err = run(1); err != nil {
		return 0, 0, err
	}
	perMsgNS, err = run(64)
	return rttNS, perMsgNS, err
}

// udtPacketPayload is the data bytes udt puts in one packet (its private
// mssPayload); it only scales the two per-packet diagnostics below.
const udtPacketPayload = 1400

type udtProbe struct {
	mibS, retransmitShare, naks, ratePPS float64
}

// probeUDT writes 64 KiB messages down one raw udt connection for d.
func probeUDT(d time.Duration) (udtProbe, error) {
	ln, err := udt.Listen("127.0.0.1:0", udt.Config{})
	if err != nil {
		return udtProbe{}, err
	}
	var wg sync.WaitGroup
	// Closing the listener unblocks an Accept still waiting; the reader is
	// waited for last, after the dialled side's Close has ended its Read.
	defer wg.Wait()
	defer ln.Close()
	var received atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	conn, err := udt.Dial(ln.Addr().String(), udt.Config{})
	if err != nil {
		return udtProbe{}, err
	}
	defer conn.Close()
	msg := make([]byte, 64<<10)
	began := time.Now()
	var written int64
	for time.Since(began) < d {
		n, err := conn.Write(msg)
		written += int64(n)
		if err != nil {
			return udtProbe{}, fmt.Errorf("benchmark: udt probe write: %w", err)
		}
	}
	took := time.Since(began).Seconds()
	retrans, naks := conn.Stats()
	return udtProbe{
		mibS:            float64(received.Load()) / took / (1 << 20),
		retransmitShare: float64(retrans) / max(float64(written)/udtPacketPayload, 1),
		naks:            float64(naks),
		// On a loss-free path udt's slow start doubles the rate without
		// limit; keep what is reported finite.
		ratePPS: min(conn.Rate(), 1e15) / udtPacketPayload,
	}, nil
}

// ackNet is a stub below the DATA interceptor: it provides core.NetworkPort
// and reports every message sent at once.
type ackNet struct{ port *kompics.Port }

func (n *ackNet) Init(ctx *kompics.Context) {
	n.port = ctx.Provides(core.NetworkPort)
	ctx.Subscribe(n.port, core.NotifyReq{}, func(e kompics.Event) {
		ctx.Trigger(core.NotifyResp{ID: e.(core.NotifyReq).ID}, n.port)
	})
	ctx.Subscribe(n.port, (*core.Msg)(nil), func(kompics.Event) {})
}

// probeData returns ns per DATA message through data.Network alone: the
// sending app keeps 64 outstanding over the stub, which costs four kompics
// dispatches per message besides the interceptor's own work.
func probeData(d time.Duration) (float64, error) {
	dn, err := data.NewDataNetwork(data.NetworkConfig{
		NewPRP: func() data.ProtocolRatioPolicy { return data.StaticRatio{R: data.MustRatio(1, 2)} },
	})
	if err != nil {
		return 0, err
	}
	sys := kompics.NewSystem()
	defer sys.Shutdown()
	a, b := core.MustParseAddress("127.0.0.1:1"), core.MustParseAddress("127.0.0.1:2")
	fs := flowSpec{proto: core.DATA, window: 64} // empty payloads: nothing below the stub reads them
	src := newApp(a, []*flow{newFlow(0, fs, make([]payload, poolSize), a, b)}, nil, nil)
	stub := &ackNet{}
	comps := []*kompics.Component{sys.Create(stub), sys.Create(dn), sys.Create(src)}
	kompics.MustConnect(stub.port, dn.Required())
	kompics.MustConnect(dn.Provided(), src.port)
	for _, c := range comps {
		sys.Start(c)
	}
	src.comp.SelfTrigger(startEv{})
	first := src.mark()
	time.Sleep(d)
	last := src.mark()
	for i := len(comps) - 1; i >= 0; i-- {
		sys.Kill(comps[i])
	}
	sys.AwaitQuiescence()
	sent := last.sentOK - first.sentOK
	return float64(last.at-first.at) / float64(max(sent, 1)), nil
}

// runProbes runs every probe for d each and files the results under the
// per-layer metric names.
func runProbes(spec *workloadSpec, d time.Duration, res *result, log io.Writer) error {
	res.set(perLayerMetrics, "kompics.dispatch_ns_per_event", probeKompics(d))

	proto, size := spec.flows[0].proto, spec.flows[0].size
	if proto == core.DATA {
		proto = core.TCP
	}
	rtt, perMsg, err := probeEndpoint(proto, size, d)
	if err != nil {
		return err
	}
	res.set(perLayerMetrics, "transport.endpoint_rtt_ns", rtt)
	res.set(perLayerMetrics, "transport.endpoint_ns_per_msg", perMsg)

	u, err := probeUDT(d)
	if err != nil {
		return err
	}
	res.set(perLayerMetrics, "udt.conn_mib_s", u.mibS)
	res.set(perLayerMetrics, "udt.retransmit_share", u.retransmitShare)
	res.set(perLayerMetrics, "udt.naks", u.naks)
	res.set(perLayerMetrics, "udt.rate_pps", u.ratePPS)

	intercept, err := probeData(d)
	if err != nil {
		return err
	}
	res.set(perLayerMetrics, "data.intercept_ns_per_msg", intercept)
	fmt.Fprintf(log, "  probes (%v each): kompics, transport.Endpoint over %v with %d B, udt 64 KiB, data interceptor\n",
		d.Round(time.Millisecond), proto, size)
	return nil
}
