package kompics

import (
	"fmt"
	"reflect"
	"sync"
	"time"
)

// ComponentID uniquely identifies a component within a System.
type ComponentID uint64

// Definition is implemented by user components. Init is called exactly once
// when the component is created; it declares ports and subscribes handlers
// through the Context. State owned by the definition is only ever touched
// by one worker at a time, so no synchronisation is needed inside handlers.
type Definition interface {
	Init(ctx *Context)
}

// ControlPort is the port type every component implicitly provides. Start,
// Stop and Kill are requests; Started, Stopped and Fault are indications.
var ControlPort = NewPortType("Control").
	Request(Start{}).
	Request(Stop{}).
	Request(Kill{}).
	Indication(Started{}).
	Indication(Stopped{}).
	Indication((*Fault)(nil))

// queuedEvent pairs an event with the port it arrived on.
type queuedEvent struct {
	port  *Port
	event Event
}

type handlerEntry struct {
	etype reflect.Type
	fn    func(Event)
}

// Component is the runtime core of a component instance. It owns the
// mailbox, handler table and scheduling state; user logic lives in the
// Definition.
type Component struct {
	id      ComponentID
	sys     *System
	def     Definition
	control *Port
	self    *Port // loopback for thread-safe self-triggering

	mu        sync.Mutex
	controlq  ring[queuedEvent] // control events take priority and bypass gating
	mailbox   ring[queuedEvent]
	scheduled bool
	started   bool
	halted    bool

	handlers map[*Port][]handlerEntry
	ports    []*Port
	onStart  []func()
	onStop   []func()
	onKill   []func()
}

// ID returns the component's identifier.
func (c *Component) ID() ComponentID { return c.id }

// Definition returns the user definition backing this component.
func (c *Component) Definition() Definition { return c.def }

// Control returns the component's provided control port. Supervisors can
// connect a required ControlPort to observe Started/Stopped/Fault
// indications.
func (c *Component) Control() *Port { return c.control }

// SelfTrigger enqueues an event to the component itself from any
// goroutine. The event is handled by handlers registered with
// Context.SubscribeSelf, with the usual exclusive-state guarantee. This is
// how I/O callbacks hand results back into component context.
func (c *Component) SelfTrigger(e Event) {
	c.enqueue(c.self, e)
}

// enqueue adds an event arriving at port p to the component's mailbox and
// schedules the component if necessary. It reports false, dropping the
// event, when the component is halted.
func (c *Component) enqueue(p *Port, e Event) bool {
	c.mu.Lock()
	if c.halted {
		c.mu.Unlock()
		return false
	}
	if p == c.control {
		c.controlq.push(queuedEvent{port: p, event: e})
	} else {
		c.mailbox.push(queuedEvent{port: p, event: e})
	}
	schedule := !c.scheduled
	if schedule {
		c.scheduled = true
	}
	c.mu.Unlock()
	if schedule {
		c.sys.sched.ready(c)
	}
	return true
}

// shutdownStop is the Stop that System.Shutdown sends: handled like Stop,
// then done is closed. halt closes done of one still queued.
type shutdownStop struct{ done chan struct{} }

// stopAndWait sends the component a shutdownStop and waits, at most
// bound, until it is handled. A halted component is skipped; one that is
// not started handles it as a no-op.
func (c *Component) stopAndWait(bound time.Duration) {
	done := make(chan struct{})
	if !c.enqueue(c.control, shutdownStop{done: done}) {
		return
	}
	t := time.NewTimer(bound)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
}

// next pops the next runnable event honouring control priority and the
// started gate: until the component is started, only control events run;
// everything else stays queued (Kompics queues events at ports until the
// component is scheduled and running).
func (c *Component) next() (queuedEvent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.controlq.n > 0 {
		return c.controlq.pop(), true
	}
	if !c.started || c.halted {
		return queuedEvent{}, false
	}
	if c.mailbox.n > 0 {
		return c.mailbox.pop(), true
	}
	return queuedEvent{}, false
}

// execute runs up to max events. It reports whether the component must be
// rescheduled because runnable work remains.
func (c *Component) execute(max int) bool {
	for i := 0; i < max; i++ {
		qe, ok := c.next()
		if !ok {
			break
		}
		c.dispatch(qe)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	runnable := c.controlq.n > 0 || (c.started && !c.halted && c.mailbox.n > 0)
	if !runnable {
		c.scheduled = false
	}
	return runnable
}

// dispatch runs all matching handlers for one event, with fault isolation.
func (c *Component) dispatch(qe queuedEvent) {
	defer func() {
		if r := recover(); r != nil {
			c.fault(r, qe.event)
		}
	}()

	if qe.port == c.control {
		c.handleControl(qe.event)
		return
	}
	c.runHandlers(qe)
}

func (c *Component) runHandlers(qe queuedEvent) {
	et := reflect.TypeOf(qe.event)
	for _, h := range c.handlers[qe.port] {
		if typeMatches(et, h.etype) {
			h.fn(qe.event)
		}
	}
	// Unmatched events are silently dropped: with broadcast channels it is
	// normal for components to ignore most traffic.
}

func (c *Component) handleControl(e Event) {
	switch e := e.(type) {
	case Start:
		if c.started {
			return
		}
		c.started = true
		for _, f := range c.onStart {
			f()
		}
		c.control.publish(Started{ID: c.id})
	case Stop:
		c.stop()
	case shutdownStop:
		defer close(e.done) // also when an OnStop handler panics
		c.stop()
	case Kill:
		for _, f := range c.onKill {
			f()
		}
		c.halt()
	default:
		// User-defined control traffic (e.g. supervisors subscribe to
		// Started on their required side); nothing to run on the provider.
	}
}

func (c *Component) stop() {
	if !c.started {
		return
	}
	c.started = false
	for _, f := range c.onStop {
		f()
	}
	c.control.publish(Stopped{ID: c.id})
}

func (c *Component) fault(r interface{}, during Event) {
	err, ok := r.(error)
	if !ok {
		err = fmt.Errorf("%v", r)
	}
	f := &Fault{ID: c.id, Err: err, Event: during}
	c.halt()
	c.control.publish(f)
	c.sys.reportFault(f)
}

// halt permanently disables the component: pending and future events are
// dropped. A pending shutdownStop is released, so Shutdown does not wait
// for it.
func (c *Component) halt() {
	c.mu.Lock()
	c.halted = true
	c.mailbox = ring[queuedEvent]{}
	for c.controlq.n > 0 {
		if st, ok := c.controlq.pop().event.(shutdownStop); ok {
			close(st.done)
		}
	}
	c.mu.Unlock()
}

// Halted reports whether the component has been killed or has faulted.
func (c *Component) Halted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.halted
}

// Context is handed to Definition.Init to declare ports and handlers. It
// must not be retained for use outside Init, except through the methods
// that are documented as goroutine-safe (Trigger, SelfTrigger).
type Context struct {
	c *Component
}

// ID returns the owning component's identifier.
func (ctx *Context) ID() ComponentID { return ctx.c.id }

// Component returns the runtime component under construction.
func (ctx *Context) Component() *Component { return ctx.c }

// System returns the component system.
func (ctx *Context) System() *System { return ctx.c.sys }

// Provides declares that the component provides a port of type pt: the
// component will trigger indications and handle requests on it.
func (ctx *Context) Provides(pt *PortType) *Port {
	p := &Port{owner: ctx.c, ptype: pt, provided: true}
	ctx.c.ports = append(ctx.c.ports, p)
	return p
}

// Requires declares that the component requires a port of type pt: the
// component will trigger requests and handle indications on it.
func (ctx *Context) Requires(pt *PortType) *Port {
	p := &Port{owner: ctx.c, ptype: pt, provided: false}
	ctx.c.ports = append(ctx.c.ports, p)
	return p
}

// Subscribe registers fn for events of proto's type arriving at port p.
// The port must belong to this component, and proto's type must be a
// declared incoming event of the port (requests on provided ports,
// indications on required ports). Interface types are declared with a nil
// pointer, e.g. (*Msg)(nil).
func (ctx *Context) Subscribe(p *Port, proto Event, fn func(Event)) {
	if p.owner != ctx.c {
		panic("kompics: Subscribe on a port owned by another component")
	}
	et := eventType(proto)
	if !p.ptype.allowsType(p.incoming(), et) {
		panic(fmt.Sprintf("kompics: %v is not a declared %s of port type %q",
			et, p.incoming(), p.ptype.name))
	}
	if ctx.c.handlers == nil {
		ctx.c.handlers = make(map[*Port][]handlerEntry)
	}
	ctx.c.handlers[p] = append(ctx.c.handlers[p], handlerEntry{etype: et, fn: fn})
}

// SubscribeSelf registers fn for events injected with
// Component.SelfTrigger.
func (ctx *Context) SubscribeSelf(proto Event, fn func(Event)) {
	et := eventType(proto)
	if ctx.c.handlers == nil {
		ctx.c.handlers = make(map[*Port][]handlerEntry)
	}
	self := ctx.c.self
	ctx.c.handlers[self] = append(ctx.c.handlers[self], handlerEntry{etype: et, fn: fn})
}

// Trigger publishes an event on one of the component's ports. Safe from
// any goroutine; the event is enqueued at all connected peers.
func (ctx *Context) Trigger(e Event, p *Port) {
	if p.owner != ctx.c {
		panic("kompics: Trigger on a port owned by another component")
	}
	p.publish(e)
}

// OnStart registers fn to run when the component handles Start.
func (ctx *Context) OnStart(fn func()) { ctx.c.onStart = append(ctx.c.onStart, fn) }

// OnStop registers fn to run when the component handles Stop.
func (ctx *Context) OnStop(fn func()) { ctx.c.onStop = append(ctx.c.onStop, fn) }

// OnKill registers fn to run when the component is killed.
func (ctx *Context) OnKill(fn func()) { ctx.c.onKill = append(ctx.c.onKill, fn) }
