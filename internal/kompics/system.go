package kompics

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/clock"
)

// selfPort is the pseudo port type backing Component.SelfTrigger. Events on
// it bypass the port type system; they never cross channels.
var selfPort = NewPortType("Self")

// Option configures a System.
type Option func(*System)

// WithWorkers sets the number of scheduler workers (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(s *System) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithMaxEvents sets how many events a component handles per scheduling
// before yielding — the paper's throughput/fairness knob (default: 16).
func WithMaxEvents(n int) Option {
	return func(s *System) {
		if n > 0 {
			s.maxEvents = n
		}
	}
}

// WithClock injects the clock used by components (default: the OS clock).
func WithClock(c clock.Clock) Option {
	return func(s *System) { s.clock = c }
}

// WithFaultHandler installs a callback invoked whenever a component
// handler panics. The default keeps faults silent (they are also published
// as Fault indications on the component's control port).
func WithFaultHandler(fn func(*Fault)) Option {
	return func(s *System) { s.onFault = fn }
}

// System owns a set of components and the scheduler that runs them.
type System struct {
	workers   int
	maxEvents int
	clock     clock.Clock
	onFault   func(*Fault)

	sched  *scheduler
	nextID atomic.Uint64

	mu         sync.Mutex
	components []*Component // in creation order
	closed     bool
}

// NewSystem creates and starts a component system.
func NewSystem(opts ...Option) *System {
	s := &System{
		workers:   runtime.GOMAXPROCS(0),
		maxEvents: 16,
		clock:     clock.Real{},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.sched = newScheduler(s.workers, s.maxEvents)
	return s
}

// Clock returns the system clock.
func (s *System) Clock() clock.Clock { return s.clock }

// Create instantiates a component from def. Init runs synchronously on the
// calling goroutine; the component is created stopped and must be started
// with Start.
func (s *System) Create(def Definition) *Component {
	c := &Component{
		id:  ComponentID(s.nextID.Add(1)),
		sys: s,
		def: def,
	}
	c.control = &Port{owner: c, ptype: ControlPort, provided: true}
	c.self = &Port{owner: c, ptype: selfPort, provided: true}
	c.ports = append(c.ports, c.control, c.self)
	def.Init(&Context{c: c})

	s.mu.Lock()
	s.components = append(s.components, c)
	s.mu.Unlock()
	return c
}

// Start delivers a Start request to the component's control port.
func (s *System) Start(c *Component) { c.enqueue(c.control, Start{}) }

// Stop delivers a Stop request to the component's control port.
func (s *System) Stop(c *Component) { c.enqueue(c.control, Stop{}) }

// Kill delivers a Kill request; the component is halted permanently.
func (s *System) Kill(c *Component) { c.enqueue(c.control, Kill{}) }

// AwaitQuiescence blocks until no component has runnable work. It is a
// momentary condition intended for tests and synchronous drivers; external
// event sources can re-activate the system immediately afterwards.
func (s *System) AwaitQuiescence() { s.sched.awaitIdle() }

// stopBound bounds how long Shutdown waits for one component's OnStop
// handlers. It exceeds UDT's 10 s linger, which a network's OnStop may
// spend draining its send queue.
const stopBound = 15 * time.Second

// Shutdown stops every started component that is not halted, in reverse
// creation order (children are created after their parents, so they stop
// first), waiting for each one's OnStop handlers to return, then closes
// the scheduler; events still queued are abandoned. A second Shutdown is
// a no-op. It must not be called from a handler.
func (s *System) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	comps := s.components
	s.mu.Unlock()
	for i := len(comps) - 1; i >= 0; i-- {
		comps[i].stopAndWait(stopBound)
	}
	s.sched.close()
}

func (s *System) reportFault(f *Fault) {
	if s.onFault != nil {
		s.onFault(f)
	}
}
