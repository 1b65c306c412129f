// Package clock abstracts time so that the same middleware logic can run
// against the operating-system clock in production and against a virtual
// clock inside the netsim discrete-event simulator.
//
// Only the small surface the middleware actually needs is abstracted:
// reading the current instant and scheduling one-shot timers. Timers fired
// by a virtual clock run synchronously inside the simulation loop, which is
// what makes experiment runs deterministic.
//
// Virtual is the one virtual implementation and the simulator's event
// core: a hierarchical timer wheel with an overflow heap, O(1) scheduling
// and cancellation, and pooled timer nodes, built for simulations with
// 10⁵-10⁶ concurrently pending timers. Its tests check it against a
// binary-heap oracle that lives beside them: both fire timers in exactly
// (deadline, creation-id) order, so identical schedules must produce
// identical event traces on either.
package clock

import "time"

// Timer is a handle to a scheduled callback. Stop prevents the callback
// from running if it has not run yet.
type Timer interface {
	// Stop cancels the timer. It reports whether the timer was stopped
	// before firing.
	Stop() bool
}

// Clock provides the current time and one-shot timers.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc schedules f to run after d. The callback must not block;
	// on a virtual clock it executes inline in the simulation loop.
	AfterFunc(d time.Duration, f func()) Timer
}

// Real is a Clock backed by the operating-system clock.
// The zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }
