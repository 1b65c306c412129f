package netsim

import (
	"math/rand"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/clock"
)

// Sim owns virtual time and the random source for one simulation run.
// Virtual time is the timer-wheel event core (clock.Virtual), which fires
// events in exact (deadline, creation-id) order, so a seeded run is
// reproducible event for event. All state mutation happens on the
// goroutine driving RunFor/RunUntil, so callbacks need no locking.
type Sim struct {
	clk   *clock.Virtual
	rng   *rand.Rand
	epoch time.Time

	msgFree []*Message // recycled Messages; see AcquireMessage
}

// NewSim creates a simulator seeded for reproducibility.
func NewSim(seed int64) *Sim {
	clk := clock.NewVirtual()
	return &Sim{
		clk:   clk,
		rng:   rand.New(rand.NewSource(seed)),
		epoch: clk.Now(),
	}
}

// Clock exposes the virtual clock, e.g. to inject into middleware logic.
func (s *Sim) Clock() *clock.Virtual { return s.clk }

// Rand returns the simulation's random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Now returns the current virtual instant.
func (s *Sim) Now() time.Time { return s.clk.Now() }

// NowNanos returns the current virtual instant in nanoseconds since the
// Unix epoch without taking the clock lock — the form hot event callbacks
// use for per-event timestamps. See clock.Virtual.NowNanos.
func (s *Sim) NowNanos() int64 { return s.clk.NowNanos() }

// Elapsed returns virtual time since the simulation began.
func (s *Sim) Elapsed() time.Duration { return s.clk.Now().Sub(s.epoch) }

// Schedule runs f after virtual delay d and returns a cancellation
// handle.
func (s *Sim) Schedule(d time.Duration, f func()) clock.Timer {
	return s.clk.AfterFunc(d, f)
}

// Post runs f after virtual delay d with no cancellation handle — the
// allocation-free hot path for events that always run (transmission
// completions, deliveries). See clock.Virtual.Post.
func (s *Sim) Post(d time.Duration, f func()) { s.clk.Post(d, f) }

// PostArg is Post for a callback taking one argument, letting callers
// reuse a single func value across millions of events.
func (s *Sim) PostArg(d time.Duration, f func(any), arg any) { s.clk.PostArg(d, f, arg) }

// RunFor advances virtual time by d, executing all due events in order.
func (s *Sim) RunFor(d time.Duration) { s.clk.Advance(d) }

// RunUntil advances virtual time until cond holds or the event queue runs
// dry or maxTime elapses. It reports whether cond became true.
func (s *Sim) RunUntil(cond func() bool, maxTime time.Duration) bool {
	deadline := s.clk.Now().Add(maxTime)
	for !cond() {
		next, ok := s.clk.NextDeadline()
		if !ok || next.After(deadline) {
			return cond()
		}
		s.clk.AdvanceTo(next)
	}
	return true
}

// Drain runs events until the queue is empty or maxTime elapses.
func (s *Sim) Drain(maxTime time.Duration) {
	deadline := s.clk.Now().Add(maxTime)
	for {
		next, ok := s.clk.NextDeadline()
		if !ok || next.After(deadline) {
			return
		}
		s.clk.AdvanceTo(next)
	}
}

// AcquireMessage returns a zeroed Message from the simulation's free
// list, allocating only when the list is empty. Campaign workloads cycle
// every payload through Acquire/Release so steady-state traffic performs
// no per-message allocation; tests and small experiments may keep
// building Messages directly — the pool is an optimisation, not a
// contract.
//
// Like the rest of Sim, the free list is confined to the simulation
// goroutine.
func (s *Sim) AcquireMessage() *Message {
	if k := len(s.msgFree); k > 0 {
		m := s.msgFree[k-1]
		s.msgFree[k-1] = nil
		s.msgFree = s.msgFree[:k-1]
		*m = Message{}
		return m
	}
	return &Message{}
}

// ReleaseMessage returns a Message obtained from AcquireMessage to the
// free list. The caller must not use m afterwards.
func (s *Sim) ReleaseMessage(m *Message) {
	s.msgFree = append(s.msgFree, m)
}
