package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// SimClock is the surface the oracle tests drive both event cores
// through: the timer wheel (Virtual) under test and the binary-heap
// VirtualHeap it is checked against.
type SimClock interface {
	Clock

	// Post schedules f like AfterFunc but returns no handle, so the
	// implementation may recycle the timer node the moment it fires.
	Post(d time.Duration, f func())

	// PostArg is Post for callbacks that need one argument.
	PostArg(d time.Duration, f func(arg any), arg any)

	// NowNanos reports the current instant in nanoseconds since the Unix
	// epoch, readable without taking the clock lock.
	NowNanos() int64

	// Advance moves the clock forward by d, firing every timer that
	// becomes due, in (deadline, creation-id) order.
	Advance(d time.Duration)

	// AdvanceTo moves the clock forward to instant t, firing every timer
	// due at or before t. Timers scheduled by fired callbacks are honoured
	// if they fall within the window.
	AdvanceTo(t time.Time)

	// PendingTimers reports how many timers are scheduled and not yet
	// fired or stopped.
	PendingTimers() int

	// NextDeadline returns the due time of the earliest pending timer.
	// The boolean result is false when no timer is pending.
	NextDeadline() (time.Time, bool)

	// HighWaterTimers reports the maximum number of concurrently pending
	// timers observed since the clock was created.
	HighWaterTimers() int

	// FiredTimers reports the total number of timer callbacks executed.
	FiredTimers() uint64
}

var _ SimClock = (*Virtual)(nil)

// VirtualHeap is the original binary-heap virtual clock, kept as the
// oracle the timer wheel's determinism property tests compare against:
// both fire in exact (deadline, creation-id) order, so identical schedules
// must produce identical traces. A stopped-entry counter makes
// PendingTimers O(1), and NextDeadline lazily pops stopped entries off the
// heap root instead of scanning.
type VirtualHeap struct {
	mu       sync.Mutex
	now      time.Time
	nowCheap atomic.Int64 // UnixNano mirror of now for the lock-free NowNanos
	nextID   int64
	timers   timerHeap
	stopped  int // stopped-but-not-yet-popped entries still in the heap
	hwm      int
	fired    uint64
}

var _ Clock = (*VirtualHeap)(nil)
var _ SimClock = (*VirtualHeap)(nil)

// NewVirtualHeap returns a heap-backed virtual clock positioned at the
// same fixed epoch as NewVirtual.
func NewVirtualHeap() *VirtualHeap {
	return &VirtualHeap{now: time.Unix(0, 0).UTC()}
}

// Now implements Clock.
func (v *VirtualHeap) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// NowNanos implements SimClock. Like the wheel's, it reads an atomic
// mirror maintained under the lock.
func (v *VirtualHeap) NowNanos() int64 { return v.nowCheap.Load() }

// AfterFunc implements Clock. The callback runs during a future Advance
// call, on the goroutine calling Advance.
func (v *VirtualHeap) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.scheduleLocked(d, f, nil, nil)
}

// Post implements SimClock. The heap does not pool nodes.
func (v *VirtualHeap) Post(d time.Duration, f func()) {
	v.mu.Lock()
	v.scheduleLocked(d, f, nil, nil)
	v.mu.Unlock()
}

// PostArg implements SimClock.
func (v *VirtualHeap) PostArg(d time.Duration, f func(any), arg any) {
	v.mu.Lock()
	v.scheduleLocked(d, nil, f, arg)
	v.mu.Unlock()
}

func (v *VirtualHeap) scheduleLocked(d time.Duration, f func(), fa func(any), arg any) *virtualTimer {
	if d < 0 {
		d = 0
	}
	v.nextID++
	vt := &virtualTimer{
		clock: v,
		id:    v.nextID,
		when:  v.now.Add(d),
		f:     f,
		fa:    fa,
		arg:   arg,
	}
	v.timers.push(vt)
	if live := len(v.timers) - v.stopped; live > v.hwm {
		v.hwm = live
	}
	return vt
}

// Advance moves the clock forward by d, firing every timer that becomes
// due, in order.
func (v *VirtualHeap) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.AdvanceTo(target)
}

// AdvanceTo moves the clock forward to instant t, firing every timer due at
// or before t in timestamp order (ties break in creation order). Timers
// scheduled by fired callbacks are honoured if they fall within the window.
func (v *VirtualHeap) AdvanceTo(t time.Time) {
	for {
		v.mu.Lock()
		if t.Before(v.now) {
			v.mu.Unlock()
			return
		}
		vt := v.timers.peek()
		if vt == nil || vt.when.After(t) {
			v.now = t
			v.nowCheap.Store(t.UnixNano())
			v.mu.Unlock()
			return
		}
		v.timers.pop()
		if vt.stopped {
			v.stopped--
			v.mu.Unlock()
			continue
		}
		v.now = vt.when
		v.nowCheap.Store(vt.when.UnixNano())
		vt.fired = true
		v.fired++
		v.mu.Unlock()
		if vt.fa != nil {
			vt.fa(vt.arg)
		} else {
			vt.f()
		}
	}
}

// PendingTimers reports how many timers are scheduled and not yet fired or
// stopped. O(1): fired timers are popped eagerly and stopped ones are
// counted as they accumulate.
func (v *VirtualHeap) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers) - v.stopped
}

// NextDeadline returns the due time of the earliest pending timer. The
// boolean result is false when no timer is pending. Stopped entries
// lingering at the root are popped here (amortized against their Stop),
// so the reported deadline is always a live timer's.
func (v *VirtualHeap) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		vt := v.timers.peek()
		if vt == nil {
			return time.Time{}, false
		}
		if !vt.stopped {
			return vt.when, true
		}
		v.timers.pop()
		v.stopped--
	}
}

// HighWaterTimers implements SimClock.
func (v *VirtualHeap) HighWaterTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.hwm
}

// FiredTimers implements SimClock.
func (v *VirtualHeap) FiredTimers() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fired
}

type virtualTimer struct {
	clock   *VirtualHeap
	id      int64
	when    time.Time
	f       func()
	fa      func(any)
	arg     any
	stopped bool
	fired   bool
	index   int
}

func (t *virtualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	t.clock.stopped++
	return true
}

// timerHeap is a binary min-heap ordered by (when, id).
type timerHeap []*virtualTimer

func (h timerHeap) less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].id < h[j].id
}

func (h *timerHeap) push(t *virtualTimer) {
	*h = append(*h, t)
	i := len(*h) - 1
	(*h)[i].index = i
	h.up(i)
}

func (h timerHeap) peek() *virtualTimer {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h *timerHeap) pop() *virtualTimer {
	old := *h
	n := len(old)
	if n == 0 {
		return nil
	}
	top := old[0]
	old[0] = old[n-1]
	old[0].index = 0
	old[n-1] = nil
	*h = old[:n-1]
	if len(*h) > 0 {
		h.down(0)
	}
	return top
}

func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h timerHeap) down(i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
