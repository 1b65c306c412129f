package main

import (
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// flow is a flowSpec's run-time state on the sending component.
type flow struct {
	spec flowSpec
	id   uint8
	pool []payload
	// slots are the flow's reusable messages; a slot is busy from its send
	// until its NotifyResp, by when core has finished reading it.
	slots  []benchMsg
	sentAt []int64 // per slot: when it was triggered
	free   []int
	seq    uint64 // messages sent so far; the last one's sequence number
	// done counts the messages a closed loop knows complete: delivered, by
	// the receiver's (cumulative) echo, on a flow that asks for echoes;
	// handed to the wire, by NotifyResp, on one that does not.
	done uint64

	// traceEvery, while the tracer is on, flags every n-th message for span
	// recording. Each mark resets it from the rate since the mark before.
	traceEvery      uint64
	markSeq, markAt int64
}

// maxFlows bounds the flows of a workload (the suite uses at most two).
const maxFlows = 8

// openLoopSlots bounds the messages an open-loop flow may have waiting for
// their NotifyResp; a message due with no slot free is counted as a stall,
// which fails the run.
const openLoopSlots = 4096

func newFlow(id int, spec flowSpec, pool []payload, src, dst core.BasicAddress) *flow {
	n := spec.window
	if spec.rate > 0 {
		n = openLoopSlots
	}
	f := &flow{spec: spec, id: uint8(id), pool: pool,
		slots: make([]benchMsg, n), sentAt: make([]int64, n), free: make([]int, n)}
	for i := range f.slots {
		f.slots[i].hdr = core.NewHeader(src, dst, spec.proto)
		f.slots[i].flow = f.id
		f.free[i] = n - 1 - i
	}
	return f
}

// counters are an app's cumulative counts; a mark copies them out.
type counters struct {
	at int64 // when the snapshot was taken on the component's thread

	attempted, sentOK, sentErr uint64           // forward sends and their NotifyResps
	echoAsked, echoGot         uint64           // echoes requested (on sends) and received
	delivered, deliveredBytes  uint64           // forward messages received and verified
	deliveredUDT               uint64           // of those, how many came over UDT
	deliveredOn                [maxFlows]uint64 // and how many on each flow
	corrupt, misordered        uint64           // checksum / per-lane FIFO violations
	stalls                     uint64           // sends skipped for want of a free slot

	// The samples recorded so far. Earlier elements are never rewritten, so
	// the reader of a snapshot may use them while the app appends.
	rtt  []int64 // echo round trips, ns
	late []int64 // open loop: how long after it was due a message was triggered
}

// Control events, injected with SelfTrigger.
type (
	startEv struct{}
	stopEv  struct{}
	markEv  struct{ reply chan<- counters }
	dueEv   struct {
		flow int
		due  int64
	}
)

// app is the benchmark's component on each node. With flows it is the
// sending component (it also receives the echoes); without, the receiving
// one, which verifies every delivery and echoes on request. Handlers run one
// at a time, so none of this state is locked; other goroutines read it only
// through marks.
type app struct {
	self  core.BasicAddress
	flows []*flow
	tr    *tracer

	ctx  *kompics.Context
	comp *kompics.Component
	port *kompics.Port

	running bool
	c       counters
	// lastSeq checks FIFO per lane: flow × direction × wire protocol.
	lastSeq [maxFlows][2][8]uint64

	// primed closes once every lane this app waits for has carried a message:
	// the lazy dials and the UDT handshake are done.
	primed   chan struct{}
	awaiting map[laneKey]bool
}

type laneKey struct {
	flow  uint8
	proto core.Transport
}

func newApp(self core.BasicAddress, flows []*flow, tr *tracer, awaiting map[laneKey]bool) *app {
	a := &app{self: self, flows: flows, tr: tr, primed: make(chan struct{}), awaiting: awaiting}
	if len(awaiting) == 0 {
		close(a.primed)
	}
	return a
}

func (a *app) Init(ctx *kompics.Context) {
	a.ctx = ctx
	a.comp = ctx.Component()
	a.port = ctx.Requires(core.NetworkPort)
	ctx.Subscribe(a.port, (*core.Msg)(nil), func(e kompics.Event) {
		if m, ok := e.(*benchMsg); ok {
			a.onMsg(m)
		}
	})
	ctx.Subscribe(a.port, core.NotifyResp{}, func(e kompics.Event) { a.onNotify(e.(core.NotifyResp)) })
	ctx.SubscribeSelf(startEv{}, func(kompics.Event) {
		a.running = true
		for _, f := range a.flows {
			a.pump(f)
		}
	})
	ctx.SubscribeSelf(stopEv{}, func(kompics.Event) { a.running = false })
	ctx.SubscribeSelf(markEv{}, func(e kompics.Event) {
		a.c.at = nowNS()
		for _, f := range a.flows {
			sent, took := int64(f.seq)-f.markSeq, a.c.at-f.markAt
			f.traceEvery = strideFor(float64(sent) / (float64(took) / 1e9))
			f.markSeq, f.markAt = int64(f.seq), a.c.at
		}
		e.(markEv).reply <- a.c
	})
	ctx.SubscribeSelf(dueEv{}, func(e kompics.Event) {
		d := e.(dueEv)
		if a.running {
			a.c.late = append(a.c.late, nowNS()-d.due)
			a.send(a.flows[d.flow], d.due)
		}
	})
}

// mark returns a consistent copy of the app's counters, taken between two
// handler executions.
func (a *app) mark() counters {
	reply := make(chan counters, 1)
	a.comp.SelfTrigger(markEv{reply: reply})
	return <-reply
}

// pump keeps a closed-loop flow's window full. It runs on every event that
// can open the window or free a slot, so neither order of a message's
// NotifyResp and echo can stall the flow.
func (a *app) pump(f *flow) {
	for a.running && f.seq-f.done < uint64(f.spec.window) && len(f.free) > 0 {
		a.send(f, nowNS())
	}
}

// send triggers the flow's next message. stamp is what round trips are
// measured from: now for a closed loop, the due time for an open one.
func (a *app) send(f *flow, stamp int64) {
	if len(f.free) == 0 {
		a.c.stalls++
		return
	}
	slot := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.seq++
	m := &f.slots[slot]
	p := &f.pool[f.seq%poolSize]
	m.seq, m.stamp, m.payload, m.crc, m.flags = f.seq, stamp, p.data, p.crc, 0
	if f.spec.echoEvery > 0 && f.seq%uint64(f.spec.echoEvery) == 0 {
		m.flags = flagEchoReq
		a.c.echoAsked++
	}
	if a.tr != nil && a.tr.on.Load() && f.seq%f.traceEvery == 0 {
		m.flags |= flagTraced
	}
	a.c.attempted++
	now := nowNS()
	f.sentAt[slot] = now
	a.tr.point(kTrigger, m, now)
	a.ctx.Trigger(core.NotifyReq{ID: uint64(f.id)<<32 | uint64(slot), Msg: m}, a.port)
}

func (a *app) onNotify(r core.NotifyResp) {
	f := a.flows[r.ID>>32]
	slot := int(uint32(r.ID))
	if r.Err != nil {
		a.c.sentErr++
	} else {
		a.c.sentOK++
	}
	if m := &f.slots[slot]; m.flags&flagTraced != 0 {
		a.tr.record(kNotify, m.flow, m.seq, f.sentAt[slot], nowNS())
	}
	f.free = append(f.free, slot)
	if f.spec.echoEvery == 0 {
		f.done++
	}
	a.pump(f)
}

// onMsg verifies one delivery. Forward messages are counted and, if asked,
// echoed; echoes end a round trip.
func (a *app) onMsg(m *benchMsg) {
	now := nowNS()
	echo := m.flags&flagEcho != 0
	if checksum(m.payload) != m.crc {
		a.c.corrupt++
	}
	dir := 0
	if echo {
		dir = 1
	}
	last := &a.lastSeq[m.flow%maxFlows][dir][m.hdr.Proto&7]
	if m.seq <= *last {
		a.c.misordered++
	}
	*last = m.seq
	if a.awaiting != nil {
		a.sawLane(laneKey{m.flow, m.hdr.Proto})
	}
	if echo {
		a.c.echoGot++
		a.c.rtt = append(a.c.rtt, now-m.stamp)
		f := a.flows[m.flow]
		f.done = max(f.done, m.seq) // lanes are FIFO, so the echo is cumulative
		a.pump(f)
	} else {
		a.tr.point(kHandler, m, now)
		a.c.delivered++
		a.c.deliveredBytes += uint64(len(m.payload))
		a.c.deliveredOn[m.flow%maxFlows]++
		if m.hdr.Proto == core.UDT {
			a.c.deliveredUDT++
		}
		if m.flags&flagEchoReq != 0 {
			a.ctx.Trigger(&benchMsg{
				hdr:  core.NewHeader(a.self, m.hdr.Src, m.hdr.Proto),
				flow: m.flow, flags: flagEcho, seq: m.seq, stamp: m.stamp,
				payload: echoBody.data, crc: echoBody.crc,
			}, a.port)
		}
	}
	releaseMsg(m)
}

func (a *app) sawLane(k laneKey) {
	delete(a.awaiting, k)
	if len(a.awaiting) == 0 {
		a.awaiting = nil
		close(a.primed)
	}
}

// pacer drives the sending app's open-loop flows: one goroutine per flow
// posts a dueEv at every due time, never skipping one, so a stall shows up as
// lateness and as queued work rather than as less load.
type pacer struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startPacer(a *app) *pacer {
	p := &pacer{stop: make(chan struct{})}
	for i, f := range a.flows {
		if f.spec.rate == 0 {
			continue
		}
		p.wg.Add(1)
		go func(flow int, interval time.Duration) {
			defer p.wg.Done()
			for due := nowNS(); ; due += int64(interval) {
				if wait := due - nowNS(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				select {
				case <-p.stop:
					return
				default:
				}
				a.comp.SelfTrigger(dueEv{flow: flow, due: due})
			}
		}(i, time.Second/time.Duration(f.spec.rate))
	}
	return p
}

func (p *pacer) halt() {
	close(p.stop)
	p.wg.Wait()
}
