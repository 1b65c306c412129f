package kompics

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// --- test fixtures -------------------------------------------------------

type ping struct{ Seq int }
type pong struct{ Seq int }

// pingPongPort is shared: port types are identities, like Java classes.
var pingPongPort = NewPortType("PingPong").
	Request(ping{}).
	Indication(pong{})

func testPortType() *PortType { return pingPongPort }

// ponger provides the port: handles ping requests, answers pong.
type ponger struct {
	port *Port
	got  []int
}

func (p *ponger) Init(ctx *Context) {
	p.port = ctx.Provides(testPortType())
	ctx.Subscribe(p.port, ping{}, func(e Event) {
		pg := e.(ping)
		p.got = append(p.got, pg.Seq)
		ctx.Trigger(pong{Seq: pg.Seq}, p.port)
	})
}

// pinger requires the port: sends pings, collects pongs.
type pinger struct {
	port *Port
	mu   sync.Mutex
	got  []int
	done chan struct{}
	want int
}

func (p *pinger) Init(ctx *Context) {
	p.port = ctx.Requires(testPortType())
	ctx.Subscribe(p.port, pong{}, func(e Event) {
		pg := e.(pong)
		p.mu.Lock()
		p.got = append(p.got, pg.Seq)
		n := len(p.got)
		p.mu.Unlock()
		if n == p.want && p.done != nil {
			close(p.done)
		}
	})
}

func (p *pinger) received() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.got))
	copy(out, p.got)
	return out
}

func newTestSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	sys := NewSystem(opts...)
	t.Cleanup(sys.Shutdown)
	return sys
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- PortType ------------------------------------------------------------

func TestPortTypeAllows(t *testing.T) {
	pt := testPortType()
	tests := []struct {
		name string
		dir  Direction
		e    Event
		want bool
	}{
		{"ping is a request", Request, ping{}, true},
		{"ping is not an indication", Indication, ping{}, false},
		{"pong is an indication", Indication, pong{}, true},
		{"pong is not a request", Request, pong{}, false},
		{"undeclared type", Request, "other", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := pt.Allows(tt.dir, tt.e); got != tt.want {
				t.Fatalf("Allows(%v, %T) = %v, want %v", tt.dir, tt.e, got, tt.want)
			}
		})
	}
}

type animal interface{ Sound() string }
type dog struct{}

func (dog) Sound() string { return "woof" }

func TestPortTypeInterfaceSubtyping(t *testing.T) {
	pt := NewPortType("Zoo").Indication((*animal)(nil))
	if !pt.Allows(Indication, dog{}) {
		t.Fatal("concrete implementation of declared interface must be allowed")
	}
	if pt.Allows(Indication, 42) {
		t.Fatal("non-implementation must not be allowed")
	}
}

func TestPortTypeNilPrototypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("declaring untyped nil must panic")
		}
	}()
	NewPortType("bad").Indication(nil)
}

func TestDirectionString(t *testing.T) {
	if Indication.String() != "indication" || Request.String() != "request" {
		t.Fatal("Direction.String mismatch")
	}
	if Direction(99).String() != "Direction(99)" {
		t.Fatal("unknown direction should format numerically")
	}
}

// --- wiring and delivery --------------------------------------------------

func TestConnectErrors(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{}
	pc := sys.Create(po)
	_ = pc
	sys.Create(pi)

	otherType := NewPortType("Other").Request(ping{})
	other := &struct {
		Definition
		port *Port
	}{}

	// Build a component with a mismatching port type.
	var mismatched *Port
	sys.Create(definitionFunc(func(ctx *Context) {
		mismatched = ctx.Provides(otherType)
	}))
	_ = other

	tests := []struct {
		name     string
		provided *Port
		required *Port
	}{
		{"nil ports", nil, nil},
		{"type mismatch", mismatched, pi.port},
		{"two required", pi.port, pi.port},
		{"two provided", po.port, po.port},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Connect(tt.provided, tt.required); err == nil {
				t.Fatal("Connect succeeded, want error")
			}
		})
	}
}

// definitionFunc adapts a func to Definition for compact test components.
type definitionFunc func(ctx *Context)

func (f definitionFunc) Init(ctx *Context) { f(ctx) }

func TestMustConnectPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustConnect must panic on invalid wiring")
		}
	}()
	MustConnect(nil, nil)
}

func TestRequestIndicationRoundTrip(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{want: 1, done: make(chan struct{})}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	MustConnect(po.port, pi.port)
	sys.Start(pgc)
	sys.Start(pic)

	pi.port.publish(ping{Seq: 7})
	select {
	case <-pi.done:
	case <-time.After(5 * time.Second):
		t.Fatal("no pong received")
	}
	if got := pi.received(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("received %v, want [7]", got)
	}
}

func TestFIFOPerChannel(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{want: 500, done: make(chan struct{})}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	MustConnect(po.port, pi.port)
	sys.Start(pgc)
	sys.Start(pic)

	for i := 0; i < 500; i++ {
		pi.port.publish(ping{Seq: i})
	}
	select {
	case <-pi.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d pongs received", len(pi.received()))
	}
	got := pi.received()
	for i, v := range got {
		if v != i {
			t.Fatalf("pong %d has seq %d; FIFO order violated (%v...)", i, v, got[:min(10, len(got))])
		}
	}
}

func TestBroadcastToAllChannels(t *testing.T) {
	// One provider, three requirers: every indication reaches each
	// requirer exactly once.
	sys := newTestSystem(t)
	po := &ponger{}
	pgc := sys.Create(po)
	const n = 3
	pingers := make([]*pinger, n)
	for i := range pingers {
		pingers[i] = &pinger{want: 1, done: make(chan struct{})}
		pic := sys.Create(pingers[i])
		MustConnect(po.port, pingers[i].port)
		sys.Start(pic)
	}
	sys.Start(pgc)

	pingers[0].port.publish(ping{Seq: 9})
	for i, pi := range pingers {
		select {
		case <-pi.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("pinger %d got no pong", i)
		}
		if got := pi.received(); len(got) != 1 || got[0] != 9 {
			t.Fatalf("pinger %d received %v, want exactly [9]", i, got)
		}
	}
}

func TestChannelSelectorFilters(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	even := &pinger{}
	odd := &pinger{}
	pgc := sys.Create(po)
	evc := sys.Create(even)
	odc := sys.Create(odd)
	MustConnect(po.port, even.port, WithIndicationSelector(func(e Event) bool {
		return e.(pong).Seq%2 == 0
	}))
	MustConnect(po.port, odd.port, WithIndicationSelector(func(e Event) bool {
		return e.(pong).Seq%2 == 1
	}))
	sys.Start(pgc)
	sys.Start(evc)
	sys.Start(odc)

	for i := 0; i < 10; i++ {
		even.port.publish(ping{Seq: i})
	}
	waitFor(t, "selector delivery", func() bool {
		return len(even.received())+len(odd.received()) == 10
	})
	for _, v := range even.received() {
		if v%2 != 0 {
			t.Fatalf("even pinger received odd seq %d", v)
		}
	}
	for _, v := range odd.received() {
		if v%2 != 1 {
			t.Fatalf("odd pinger received even seq %d", v)
		}
	}
	if len(even.received()) != 5 || len(odd.received()) != 5 {
		t.Fatalf("split = %d/%d, want 5/5", len(even.received()), len(odd.received()))
	}
}

func TestRequestSelector(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	MustConnect(po.port, pi.port, WithRequestSelector(func(e Event) bool {
		return e.(ping).Seq >= 5
	}))
	sys.Start(pgc)
	sys.Start(pic)

	for i := 0; i < 10; i++ {
		pi.port.publish(ping{Seq: i})
	}
	waitFor(t, "filtered pings", func() bool { return len(pi.received()) == 5 })
	time.Sleep(10 * time.Millisecond) // allow over-delivery to surface
	if got := len(pi.received()); got != 5 {
		t.Fatalf("received %d pongs, want 5", got)
	}
}

func TestDisconnectStopsDelivery(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	ch := MustConnect(po.port, pi.port)
	sys.Start(pgc)
	sys.Start(pic)

	pi.port.publish(ping{Seq: 1})
	waitFor(t, "first pong", func() bool { return len(pi.received()) == 1 })
	ch.Disconnect()
	ch.Disconnect() // idempotent
	pi.port.publish(ping{Seq: 2})
	sys.AwaitQuiescence()
	if got := len(pi.received()); got != 1 {
		t.Fatalf("received %d pongs after disconnect, want 1", got)
	}
}

func TestTriggerUndeclaredEventPanics(t *testing.T) {
	zoo := NewPortType("Zoo").Request((*animal)(nil))
	tests := []struct {
		name     string
		pt       *PortType
		provided bool
		e        Event
	}{
		// ping is a request; the provider may only send indications.
		{"concrete type, wrong direction", testPortType(), true, ping{}},
		{"interface type, wrong direction", zoo, true, dog{}},
		{"interface type, not implemented", zoo, false, 42},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys := newTestSystem(t)
			var port *Port
			sys.Create(definitionFunc(func(ctx *Context) {
				if tt.provided {
					port = ctx.Provides(tt.pt)
				} else {
					port = ctx.Requires(tt.pt)
				}
			}))
			defer func() {
				if recover() == nil {
					t.Fatalf("publishing an undeclared %T must panic", tt.e)
				}
			}()
			port.publish(tt.e)
		})
	}
}

type loudAnimal interface {
	animal
	Loud() bool
}

// TestSubscribeWrongDirectionPanics checks Subscribe's rejections, and
// beside them the accepted prototypes of the same port type, so both
// sides of the one type matcher are pinned.
func TestSubscribeWrongDirectionPanics(t *testing.T) {
	zoo := NewPortType("Zoo").Indication((*animal)(nil))
	tests := []struct {
		name     string
		pt       *PortType
		provided bool
		proto    Event
		reject   bool
	}{
		// pong is outgoing (indication) for the provider; handler invalid.
		{"concrete type, wrong direction", testPortType(), true, pong{}, true},
		{"interface type, wrong direction", zoo, true, (*animal)(nil), true},
		{"interface type, not implemented", zoo, false, 42, true},
		{"interface type, declared", zoo, false, (*animal)(nil), false},
		{"narrower interface type", zoo, false, (*loudAnimal)(nil), false},
		{"implementation of declared interface", zoo, false, dog{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys := newTestSystem(t)
			defer func() {
				if rejected := recover() != nil; rejected != tt.reject {
					t.Fatalf("Subscribe(%T): rejected = %v, want %v", tt.proto, rejected, tt.reject)
				}
			}()
			sys.Create(definitionFunc(func(ctx *Context) {
				var p *Port
				if tt.provided {
					p = ctx.Provides(tt.pt)
				} else {
					p = ctx.Requires(tt.pt)
				}
				ctx.Subscribe(p, tt.proto, func(Event) {})
			}))
		})
	}
}

func TestSubscribeForeignPortPanics(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	sys.Create(po)
	defer func() {
		if recover() == nil {
			t.Fatal("subscribing on a foreign port must panic")
		}
	}()
	sys.Create(definitionFunc(func(ctx *Context) {
		ctx.Subscribe(po.port, ping{}, func(Event) {})
	}))
}

// --- scheduling ------------------------------------------------------------

func TestExclusiveExecution(t *testing.T) {
	// A component must never run on two workers at once even under heavy
	// concurrent load.
	sys := newTestSystem(t, WithWorkers(8), WithMaxEvents(4))
	var inside atomic.Int32
	var violations atomic.Int32
	var handled atomic.Int32

	comp := &ponger{}
	pc := sys.Create(definitionFunc(func(ctx *Context) {
		comp.port = ctx.Provides(testPortType())
		ctx.Subscribe(comp.port, ping{}, func(Event) {
			if inside.Add(1) != 1 {
				violations.Add(1)
			}
			//kmlint:ignore handlerblock this handler blocks on purpose to widen the race window the exclusivity test probes
			time.Sleep(50 * time.Microsecond)
			inside.Add(-1)
			handled.Add(1)
		})
	}))
	pi := &pinger{}
	pic := sys.Create(pi)
	MustConnect(comp.port, pi.port)
	sys.Start(pc)
	sys.Start(pic)

	const total = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				pi.port.publish(ping{Seq: i})
			}
		}()
	}
	wg.Wait()
	waitFor(t, "all pings handled", func() bool { return handled.Load() == total })
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d exclusive-execution violations", v)
	}
}

func TestMaxEventsFairness(t *testing.T) {
	// With one worker and two busy components, neither may starve: batches
	// of MaxEvents must interleave.
	sys := newTestSystem(t, WithWorkers(1), WithMaxEvents(8))

	var order []ComponentID
	var mu sync.Mutex
	mk := func() (*Port, *Component) {
		var port *Port
		c := sys.Create(definitionFunc(func(ctx *Context) {
			port = ctx.Provides(testPortType())
			id := ctx.ID()
			ctx.Subscribe(port, ping{}, func(Event) {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			})
		}))
		return port, c
	}
	portA, ca := mk()
	portB, cb := mk()

	// Requirer components to legally inject requests.
	reqA := &pinger{}
	reqB := &pinger{}
	rac := sys.Create(reqA)
	rbc := sys.Create(reqB)
	MustConnect(portA, reqA.port)
	MustConnect(portB, reqB.port)

	const n = 64
	// Queue work before starting so both are backlogged.
	for i := 0; i < n; i++ {
		reqA.port.publish(ping{Seq: i})
		reqB.port.publish(ping{Seq: i})
	}
	sys.Start(ca)
	sys.Start(cb)
	sys.Start(rac)
	sys.Start(rbc)

	waitFor(t, "all events handled", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 2*n
	})

	// Check that no component ran more than MaxEvents consecutively.
	mu.Lock()
	defer mu.Unlock()
	run := 1
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			run++
			if run > 8 {
				t.Fatalf("component %d ran %d consecutive events, max 8", order[i], run)
			}
		} else {
			run = 1
		}
	}
}

func TestEventsQueuedUntilStart(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	MustConnect(po.port, pi.port)
	sys.Start(pic)

	pi.port.publish(ping{Seq: 1}) // ponger not started yet
	sys.AwaitQuiescence()
	if len(pi.received()) != 0 {
		t.Fatal("event handled before Start")
	}
	sys.Start(pgc)
	waitFor(t, "deferred event", func() bool { return len(pi.received()) == 1 })
}

func TestStopHaltsHandlingUntilRestart(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	MustConnect(po.port, pi.port)
	sys.Start(pgc)
	sys.Start(pic)

	pi.port.publish(ping{Seq: 1})
	waitFor(t, "first pong", func() bool { return len(pi.received()) == 1 })

	sys.Stop(pgc)
	sys.AwaitQuiescence()
	pi.port.publish(ping{Seq: 2})
	sys.AwaitQuiescence()
	if len(pi.received()) != 1 {
		t.Fatal("stopped component handled an event")
	}

	sys.Start(pgc) // restart releases the queued event
	waitFor(t, "queued event after restart", func() bool { return len(pi.received()) == 2 })
}

func TestKillDropsEvents(t *testing.T) {
	sys := newTestSystem(t)
	po := &ponger{}
	pi := &pinger{}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	MustConnect(po.port, pi.port)
	sys.Start(pgc)
	sys.Start(pic)
	sys.Kill(pgc)
	waitFor(t, "halt", pgc.Halted)
	pi.port.publish(ping{Seq: 1})
	sys.AwaitQuiescence()
	if len(pi.received()) != 0 {
		t.Fatal("killed component handled an event")
	}
}

func TestLifecycleCallbacksAndIndications(t *testing.T) {
	sys := newTestSystem(t)
	var events []string
	var mu sync.Mutex
	record := func(s string) { mu.Lock(); events = append(events, s); mu.Unlock() }

	c := sys.Create(definitionFunc(func(ctx *Context) {
		ctx.OnStart(func() { record("start") })
		ctx.OnStop(func() { record("stop") })
		ctx.OnKill(func() { record("kill") })
	}))

	// Supervisor observing lifecycle indications.
	started := make(chan struct{})
	stopped := make(chan struct{})
	sup := sys.Create(definitionFunc(func(ctx *Context) {
		cp := ctx.Requires(ControlPort)
		MustConnect(c.Control(), cp)
		ctx.Subscribe(cp, Started{}, func(Event) { close(started) })
		ctx.Subscribe(cp, Stopped{}, func(Event) { close(stopped) })
	}))
	sys.Start(sup)
	sys.Start(c)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no Started indication")
	}
	sys.Stop(c)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("no Stopped indication")
	}
	sys.Kill(c)
	waitFor(t, "kill", c.Halted)

	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(events) != "[start stop kill]" {
		t.Fatalf("lifecycle callbacks = %v, want [start stop kill]", events)
	}
}

func TestDoubleStartIsIdempotent(t *testing.T) {
	sys := newTestSystem(t)
	var starts atomic.Int32
	c := sys.Create(definitionFunc(func(ctx *Context) {
		ctx.OnStart(func() { starts.Add(1) })
	}))
	sys.Start(c)
	sys.Start(c)
	sys.AwaitQuiescence()
	if got := starts.Load(); got != 1 {
		t.Fatalf("OnStart ran %d times, want 1", got)
	}
}

// --- faults -----------------------------------------------------------------

func TestHandlerPanicFaultsComponent(t *testing.T) {
	faults := make(chan *Fault, 1)
	sys := newTestSystem(t, WithFaultHandler(func(f *Fault) { faults <- f }))

	po := &ponger{}
	var port *Port
	pc := sys.Create(definitionFunc(func(ctx *Context) {
		port = ctx.Provides(testPortType())
		ctx.Subscribe(port, ping{}, func(Event) { panic(errors.New("boom")) })
	}))
	_ = po
	pi := &pinger{}
	pic := sys.Create(pi)
	MustConnect(port, pi.port)
	sys.Start(pc)
	sys.Start(pic)

	pi.port.publish(ping{Seq: 1})
	select {
	case f := <-faults:
		if f.Err == nil || f.Err.Error() != "boom" {
			t.Fatalf("fault err = %v, want boom", f.Err)
		}
		if _, ok := f.Event.(ping); !ok {
			t.Fatalf("fault event = %T, want ping", f.Event)
		}
		if f.Error() == "" {
			t.Fatal("Fault.Error() empty")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no fault reported")
	}
	waitFor(t, "halt after fault", pc.Halted)
}

func TestNonErrorPanicWrapped(t *testing.T) {
	faults := make(chan *Fault, 1)
	sys := newTestSystem(t, WithFaultHandler(func(f *Fault) { faults <- f }))
	var port *Port
	pc := sys.Create(definitionFunc(func(ctx *Context) {
		port = ctx.Provides(testPortType())
		ctx.Subscribe(port, ping{}, func(Event) { panic("not an error") })
	}))
	pi := &pinger{}
	pic := sys.Create(pi)
	MustConnect(port, pi.port)
	sys.Start(pc)
	sys.Start(pic)
	pi.port.publish(ping{Seq: 1})
	select {
	case f := <-faults:
		if f.Err.Error() != "not an error" {
			t.Fatalf("fault err = %q", f.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no fault reported")
	}
}

// --- self trigger ------------------------------------------------------------

func TestSelfTrigger(t *testing.T) {
	sys := newTestSystem(t)
	got := make(chan int, 1)
	var comp *Component
	c := sys.Create(definitionFunc(func(ctx *Context) {
		ctx.SubscribeSelf(ping{}, func(e Event) { got <- e.(ping).Seq })
	}))
	comp = c
	sys.Start(c)
	comp.SelfTrigger(ping{Seq: 42})
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("self event seq = %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self event not delivered")
	}
}

func TestSelfTriggerGatedUntilStart(t *testing.T) {
	sys := newTestSystem(t)
	var handled atomic.Int32
	c := sys.Create(definitionFunc(func(ctx *Context) {
		ctx.SubscribeSelf(ping{}, func(Event) { handled.Add(1) })
	}))
	c.SelfTrigger(ping{})
	sys.AwaitQuiescence()
	if handled.Load() != 0 {
		t.Fatal("self event handled before Start")
	}
	sys.Start(c)
	waitFor(t, "gated self event", func() bool { return handled.Load() == 1 })
}

// --- system ---------------------------------------------------------------

func TestShutdownIdempotent(t *testing.T) {
	sys := NewSystem()
	sys.Shutdown()
	sys.Shutdown()
}

// TestShutdownStopsStartedInReverse checks Shutdown's lifecycle contract as
// an event stream: OnStop runs once per started component, last created
// first; never-started and killed components are skipped, a Kill still
// queued when Shutdown sends its Stop included; a second Shutdown is a
// no-op.
func TestShutdownStopsStartedInReverse(t *testing.T) {
	sys := NewSystem()
	var mu sync.Mutex
	var stops []string
	onStop := func(ctx *Context, name string) {
		ctx.OnStop(func() {
			mu.Lock()
			stops = append(stops, name)
			mu.Unlock()
		})
	}
	create := func(name string) *Component {
		return sys.Create(definitionFunc(func(ctx *Context) { onStop(ctx, name) }))
	}
	parent := create("parent")
	create("never-started")
	child := create("child")
	killed := create("killed")
	grandchild := create("grandchild")
	blocked, release := make(chan struct{}), make(chan struct{})
	queuedKill := sys.Create(definitionFunc(func(ctx *Context) {
		onStop(ctx, "killed-while-queued")
		ctx.SubscribeSelf(ping{}, func(Event) { close(blocked); <-release })
	}))
	for _, c := range []*Component{parent, child, killed, grandchild, queuedKill} {
		sys.Start(c)
	}
	sys.Kill(killed)
	sys.AwaitQuiescence()
	queuedKill.SelfTrigger(ping{})
	<-blocked
	sys.Kill(queuedKill) // queued behind the running handler

	done := make(chan struct{})
	go func() {
		sys.Shutdown()
		close(done)
	}()
	waitFor(t, "Shutdown's Stop queued behind the Kill", func() bool {
		queuedKill.mu.Lock()
		defer queuedKill.mu.Unlock()
		return queuedKill.controlq.n == 2
	})
	close(release)
	select {
	case <-done:
	case <-time.After(stopBound / 2):
		t.Fatal("Shutdown waited on a component halted by a queued Kill")
	}
	sys.Shutdown()

	mu.Lock()
	defer mu.Unlock()
	want := []string{"grandchild", "child", "parent"}
	if fmt.Sprint(stops) != fmt.Sprint(want) {
		t.Fatalf("OnStop ran for %v, want %v", stops, want)
	}
}

func TestSystemClockDefault(t *testing.T) {
	sys := newTestSystem(t)
	if sys.Clock() == nil {
		t.Fatal("system clock is nil")
	}
}

func TestComponentAccessors(t *testing.T) {
	sys := newTestSystem(t)
	def := &ponger{}
	c := sys.Create(def)
	if c.ID() == 0 {
		t.Fatal("component ID must be nonzero")
	}
	if c.Definition() != def {
		t.Fatal("Definition() does not round-trip")
	}
	if !def.port.IsProvided() {
		t.Fatal("provided port reports IsProvided() = false")
	}
	if def.port.Owner() != c {
		t.Fatal("port owner mismatch")
	}
	if def.port.Type().Name() != "PingPong" {
		t.Fatalf("port type name = %q", def.port.Type().Name())
	}
}

// --- property tests -----------------------------------------------------------

func TestPropertyFIFOExactlyOnce(t *testing.T) {
	// For any batch of sequence numbers sent through a channel, the
	// receiver observes exactly that sequence, in order.
	f := func(seqs []int16) bool {
		if len(seqs) > 256 {
			seqs = seqs[:256]
		}
		sys := NewSystem(WithWorkers(4))
		defer sys.Shutdown()
		po := &ponger{}
		pi := &pinger{want: len(seqs), done: make(chan struct{})}
		pgc := sys.Create(po)
		pic := sys.Create(pi)
		MustConnect(po.port, pi.port)
		sys.Start(pgc)
		sys.Start(pic)
		for _, s := range seqs {
			pi.port.publish(ping{Seq: int(s)})
		}
		if len(seqs) > 0 {
			select {
			case <-pi.done:
			case <-time.After(10 * time.Second):
				return false
			}
		}
		sys.AwaitQuiescence()
		got := pi.received()
		if len(got) != len(seqs) {
			return false
		}
		for i := range got {
			if got[i] != int(seqs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStressManyComponents(t *testing.T) {
	// 50 ponger components behind one port each, 20 pingers hammering
	// them: the scheduler must deliver everything exactly once with no
	// starvation.
	sys := newTestSystem(t, WithWorkers(8), WithMaxEvents(4))
	const pongers, pingers, per = 50, 20, 40

	pongPorts := make([]*Port, pongers)
	for i := range pongPorts {
		i := i
		c := sys.Create(definitionFunc(func(ctx *Context) {
			p := ctx.Provides(testPortType())
			pongPorts[i] = p
			ctx.Subscribe(p, ping{}, func(e Event) {
				ctx.Trigger(pong{Seq: e.(ping).Seq}, p)
			})
		}))
		sys.Start(c)
	}

	var received atomic.Int64
	pingPorts := make([]*Port, pingers)
	comps := make([]*Component, pingers)
	for i := range pingPorts {
		i := i
		c := sys.Create(definitionFunc(func(ctx *Context) {
			p := ctx.Requires(testPortType())
			pingPorts[i] = p
			ctx.Subscribe(p, pong{}, func(Event) { received.Add(1) })
			ctx.SubscribeSelf(ping{}, func(e Event) { ctx.Trigger(e.(ping), p) })
		}))
		comps[i] = c
		// Each pinger connects to one ponger (round robin).
		MustConnect(pongPorts[i%pongers], pingPorts[i])
		sys.Start(c)
	}

	for round := 0; round < per; round++ {
		for i := range comps {
			comps[i].SelfTrigger(ping{Seq: round})
		}
	}
	want := int64(pingers * per)
	waitFor(t, "all pongs", func() bool { return received.Load() == want })
	sys.AwaitQuiescence()
	if got := received.Load(); got != want {
		t.Fatalf("received %d pongs, want exactly %d (no duplicates)", got, want)
	}
}

func TestDisconnectDuringTraffic(t *testing.T) {
	// Disconnecting a channel while traffic flows must not panic or
	// deliver to the disconnected endpoint afterwards.
	sys := newTestSystem(t, WithWorkers(4))
	po := &ponger{}
	pi := &pinger{}
	pgc := sys.Create(po)
	pic := sys.Create(pi)
	ch := MustConnect(po.port, pi.port)
	sys.Start(pgc)
	sys.Start(pic)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				pi.port.publish(ping{Seq: i})
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	ch.Disconnect()
	close(stop)
	wg.Wait()
	sys.AwaitQuiescence()
	countAtDisconnect := len(pi.received())
	sys.AwaitQuiescence()
	if got := len(pi.received()); got != countAtDisconnect {
		t.Fatalf("deliveries continued after disconnect: %d → %d", countAtDisconnect, got)
	}
}
