package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
)

// The liveness gates. Each check returns nil or a description of the
// violation; main collects them all (a failing run reports every broken
// invariant, not just the first) and exits nonzero if any tripped.

// waitFor polls cond until it holds or wait runs out, whichever comes
// first; the caller's gate then rules on the state cond observed.
func waitFor(wait time.Duration, cond func() bool) {
	for deadline := time.Now().Add(wait); !cond() && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
}

// checkBufpool diffs the pool accounting across the whole run: after
// every system has shut down, each Get must have settled its Put. A
// nonzero total is a leaked pooled buffer somewhere on the wire path.
// Teardown releases are asynchronous (channel run loops fail their
// queues as they unwind), so the gate polls before ruling.
func checkBufpool(before bufpool.Accounting) error {
	var after bufpool.Accounting
	waitFor(3*time.Second, func() bool {
		after = bufpool.Account()
		return after.Outstanding == before.Outstanding
	})
	leaked := after.Outstanding - before.Outstanding
	if leaked == 0 {
		return nil
	}
	detail := ""
	for i, c := range after.Classes {
		var b bufpool.ClassAccount
		if i < len(before.Classes) {
			b = before.Classes[i]
		}
		if d := c.Outstanding - b.Outstanding; d != 0 {
			detail += fmt.Sprintf(" class[%d]=%+d", c.Size, d)
		}
	}
	if d := after.Buffers.Outstanding - before.Buffers.Outstanding; d != 0 {
		detail += fmt.Sprintf(" buffers=%+d", d)
	}
	return fmt.Errorf("buffer leak: %+d pooled buffers outstanding after shutdown (%s)",
		leaked, detail)
}

// goroutineBaseline samples the goroutine count until it is stable
// across consecutive reads — the quiesced-checkpoint count transient
// teardown goroutines must settle back to.
func goroutineBaseline() int {
	stable, last := 0, runtime.NumGoroutine()
	for i := 0; i < 50 && stable < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			stable++
		} else {
			stable, last = 0, n
		}
	}
	return last
}

// checkGoroutines waits for the goroutine count to return to the
// baseline (with a small slack for runtime-internal helpers), retrying
// while connection teardown drains. Growth that never settles is a
// goroutine leak — a channel run loop or read loop that outlived its
// connection.
func checkGoroutines(baseline int) error {
	const slack = 8
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline+slack && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline+slack {
		return fmt.Errorf("goroutine growth: %d at checkpoint, baseline %d (+%d slack)",
			n, baseline, slack)
	}
	return nil
}

// queueMonitor samples every node's outgoing-registry depth while the
// run is hot and keeps the high-water mark; the invariant is that no
// single channel queue ever exceeded the transport's configured bound
// (an arrival that does not fit is rejected, so deeper means the bound
// broke).
type queueMonitor struct {
	c    *cluster
	reg  *stats.Registry
	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	maxDepth int
}

func newQueueMonitor(c *cluster, reg *stats.Registry) *queueMonitor {
	return &queueMonitor{c: c, reg: reg, stop: make(chan struct{})}
}

func (m *queueMonitor) start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				depth := 0
				for _, n := range m.c.nodes {
					if d := n.net.QueueStats().MaxDepth; d > depth {
						depth = d
					}
				}
				m.mu.Lock()
				if depth > m.maxDepth {
					m.maxDepth = depth
				}
				m.mu.Unlock()
				m.reg.Gauge("queue_high_water").Set(int64(m.highWater()))
			}
		}
	}()
}

func (m *queueMonitor) halt() {
	close(m.stop)
	m.wg.Wait()
}

func (m *queueMonitor) highWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxDepth
}

// check enforces the bounded-queue invariant against the per-channel
// bound, and that the queues fully drained by the end of the run. A
// node that did not drain is reported with its channels whose last
// status is not Up.
func (m *queueMonitor) check(bound int) error {
	if hw := m.highWater(); hw > bound {
		return fmt.Errorf("queue depth: high-water %d exceeds per-channel bound %d", hw, bound)
	}
	for _, n := range m.c.nodes {
		if q := n.net.QueueStats(); q.Queued != 0 {
			return fmt.Errorf("queue drain: node%d still has %d queued messages after traffic stopped; not up: %v",
				n.index, q.Queued, n.status.notUp())
		}
	}
	return nil
}

// checkRecoveries enforces the outage gates across every node's watcher:
// no channel still down at the end of the run, and every measured
// down→up latency within the budget (the p99.9 gate — at soak scale the
// worst observed recovery IS the tail).
func checkRecoveries(c *cluster, budget time.Duration, expectOutages bool) error {
	total := 0
	var worst time.Duration
	for _, n := range c.nodes {
		recovered, unrecovered := n.status.results()
		if len(unrecovered) > 0 {
			return fmt.Errorf("unrecovered outage: node%d channels still down: %v",
				n.index, unrecovered)
		}
		for _, o := range recovered {
			total++
			if o.Recovery > worst {
				worst = o.Recovery
			}
			if o.Recovery > budget {
				return fmt.Errorf("recovery budget: node%d %v %s took %v (budget %v)",
					n.index, o.Proto, o.Dest, o.Recovery.Round(time.Millisecond), budget)
			}
		}
	}
	if expectOutages && total == 0 {
		// A channel leaves Up only through Down, and every Down either
		// ended an outage or is still pending (both ruled out above): so
		// each channel not Up now never came up at all.
		var neverUp []string
		for _, n := range c.nodes {
			for _, ch := range n.status.notUp() {
				neverUp = append(neverUp, fmt.Sprintf("node%d %s", n.index, ch))
			}
		}
		if len(neverUp) > 0 {
			return fmt.Errorf("no outage observed: no channel went down, because these never came up (peer never reachable): %v", neverUp)
		}
		return fmt.Errorf("no outage observed: the schedule injected faults but no channel ever went down — harness wiring broken")
	}
	return nil
}
