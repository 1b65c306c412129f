package kompics

import "testing"

// TestRunQueueFIFO exercises order and wraparound across growth.
func TestRunQueueFIFO(t *testing.T) {
	var q ring[*Component]
	comps := make([]*Component, 100)
	for i := range comps {
		comps[i] = &Component{}
	}
	// Interleave pushes and pops so head wraps around the ring.
	next := 0
	for i, c := range comps {
		q.push(c)
		if i%3 == 2 {
			if got := q.pop(); got != comps[next] {
				t.Fatalf("pop %d: wrong component", next)
			}
			next++
		}
	}
	for q.n > 0 {
		if got := q.pop(); got != comps[next] {
			t.Fatalf("pop %d: wrong component", next)
		}
		next++
	}
	if next != len(comps) {
		t.Fatalf("popped %d of %d", next, len(comps))
	}
}

// TestRunQueueNoGrowthAtSteadyState is the regression test for the old
// slice-shift queue: `queue = queue[1:]` slid down its backing array and
// re-allocated forever under steady traffic. The ring must reach a fixed
// capacity and stay there no matter how many operations flow through.
func TestRunQueueNoGrowthAtSteadyState(t *testing.T) {
	var q ring[*Component]
	c := &Component{}
	// Steady state: bounded occupancy (≤ 8), many operations.
	for i := 0; i < 100000; i++ {
		for j := 0; j < 8; j++ {
			q.push(c)
		}
		for j := 0; j < 8; j++ {
			q.pop()
		}
	}
	if cap(q.buf) > 16 {
		t.Fatalf("ring grew to %d slots for ≤8 queued components", cap(q.buf))
	}
}

// TestRunQueuePopZeroesSlot checks popped slots are cleared so finished
// components are not pinned by the queue's backing array.
func TestRunQueuePopZeroesSlot(t *testing.T) {
	var q ring[*Component]
	q.push(&Component{})
	head := q.head
	q.pop()
	if q.buf[head] != nil {
		t.Fatal("vacated slot still references the component")
	}
}

// TestTriggerDispatchAllocFree pins the per-event cost of the component
// hot path: with the event boxed once up front, Trigger on a connected
// required port, the provider's mailbox enqueue and its handler dispatch
// allocate nothing — no channel-list snapshot per publish, no mailbox
// reallocation per pop.
func TestTriggerDispatchAllocFree(t *testing.T) {
	sys := newTestSystem(t, WithWorkers(1))
	var handled int
	var provided, required *Port
	var trigger func(Event, *Port)
	prov := sys.Create(definitionFunc(func(ctx *Context) {
		provided = ctx.Provides(pingPongPort)
		ctx.Subscribe(provided, ping{}, func(Event) { handled++ })
	}))
	req := sys.Create(definitionFunc(func(ctx *Context) {
		required = ctx.Requires(pingPongPort)
		trigger = ctx.Trigger
	}))
	MustConnect(provided, required)
	sys.Start(prov)
	sys.Start(req)

	var ev Event = ping{Seq: 1}
	// Warm up: let the mailbox and run queue reach their steady size.
	for i := 0; i < 64; i++ {
		trigger(ev, required)
	}
	sys.AwaitQuiescence()
	// Bursts, so a mailbox that slides down its backing array has to
	// reallocate within every run.
	const burst = 16
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < burst; i++ {
			trigger(ev, required)
		}
		sys.AwaitQuiescence()
	})
	if allocs != 0 {
		t.Fatalf("Trigger + enqueue + dispatch: %v allocations per %d events, want 0", allocs, burst)
	}
	// AllocsPerRun adds one warm-up call of its own.
	if want := 64 + 1001*burst; handled != want {
		t.Fatalf("handled %d events, want %d", handled, want)
	}
}
