package clock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// simClockOps drives a SimClock through a deterministic random schedule —
// interleaved scheduling, stopping, nested scheduling from callbacks,
// far-future deadlines (wheel overflow), exact ties, and windowed
// advances through both Advance and AdvanceTo (including a target equal
// to now and one in the past) — then one dense round of denseTimers
// resident timers spread over every wheel level and the overflow heap.
// It returns the full trace: every fire with both clock readings, and per
// round the deadline, pending, high-water and fired counts. Both
// implementations must produce identical traces for identical seeds: that
// is the determinism contract the netsim campaigns rely on. inspect, when
// non-nil, runs once while the dense round's timers are resident.
func simClockOps(c SimClock, seed int64, inspect func()) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	stamp := func() string {
		return fmt.Sprintf("@%d/%d", c.Now().UnixNano(), c.NowNanos())
	}
	note := func(tag string, id int) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("%s/%d%s", tag, id, stamp()))
		}
	}
	counters := func(tag string) {
		trace = append(trace, fmt.Sprintf("%s%s pending=%d hwm=%d fired=%d",
			tag, stamp(), c.PendingTimers(), c.HighWaterTimers(), c.FiredTimers()))
	}
	var handles []Timer
	id := 0
	for round := 0; round < 40; round++ {
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			id++
			d := time.Duration(rng.Int63n(int64(3 * time.Second)))
			switch rng.Intn(6) {
			case 0: // exact tie with a sibling
				c.Post(d, note("tie-a", id))
				c.Post(d, note("tie-b", id))
			case 1: // far future: exercises the wheel's overflow heap
				far := d + time.Duration(1+rng.Intn(4))*2*time.Hour
				handles = append(handles, c.AfterFunc(far, note("far", id)))
			case 2: // stoppable
				handles = append(handles, c.AfterFunc(d, note("h", id)))
			case 3: // nested scheduling from inside a callback
				nid := id
				nd := time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
				c.Post(d, func() {
					trace = append(trace, fmt.Sprintf("outer/%d%s", nid, stamp()))
					c.Post(nd, note("nested", nid))
					c.Post(0, note("nested0", nid))
				})
			case 4: // PostArg path
				c.PostArg(d, func(a any) {
					trace = append(trace, fmt.Sprintf("arg/%d%s", a.(int), stamp()))
				}, id)
			default:
				c.Post(d, note("p", id))
			}
		}
		// Stop a random prefix of outstanding handles (some already fired).
		for len(handles) > 0 && rng.Intn(3) == 0 {
			h := handles[len(handles)-1]
			handles = handles[:len(handles)-1]
			trace = append(trace, fmt.Sprintf("stop=%v", h.Stop()))
		}
		if dl, ok := c.NextDeadline(); ok {
			trace = append(trace, fmt.Sprintf("next@%d pending=%d", dl.UnixNano(), c.PendingTimers()))
		}
		w := time.Duration(rng.Int63n(int64(2 * time.Second)))
		switch rng.Intn(4) {
		case 0:
			c.Advance(w)
		case 1: // a window ending exactly now fires only what is due now
			c.Post(0, note("due-now", id))
			c.AdvanceTo(c.Now())
		case 2: // a target in the past must fire nothing and keep the clock
			c.AdvanceTo(c.Now().Add(-w - 1))
		default:
			c.AdvanceTo(c.Now().Add(w))
		}
		counters("now")
	}

	// The dense round: denseTimers more timers, a quarter each on wheel
	// levels 0, 1 and 2 (relative to the cursor) and in the overflow heap,
	// with ties, handles and stops mixed in, drained in random windows.
	handles = handles[:0]
	gran := [4]time.Duration{time.Microsecond, time.Millisecond, time.Second, time.Second}
	for i := 0; i < denseTimers; i++ {
		id++
		var d time.Duration
		switch i % 4 {
		case 0:
			d = time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		case 1:
			d = 2*time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Second)))
		case 2:
			d = 5*time.Second + time.Duration(rng.Int63n(int64(2*time.Hour)))
		default:
			d = 3*time.Hour + time.Duration(rng.Int63n(int64(3*time.Hour)))
		}
		if rng.Intn(2) == 0 { // breed exact ties
			d = d.Truncate(gran[i%4])
		}
		switch i % 3 {
		case 0:
			c.PostArg(d, func(a any) {
				trace = append(trace, fmt.Sprintf("dense-arg/%d%s", a.(int), stamp()))
			}, id)
		case 1:
			handles = append(handles, c.AfterFunc(d, note("dense-h", id)))
		default:
			c.Post(d, note("dense", id))
		}
	}
	for _, h := range handles {
		if rng.Intn(4) == 0 {
			trace = append(trace, fmt.Sprintf("stop=%v", h.Stop()))
		}
	}
	counters("dense")
	if inspect != nil {
		inspect()
	}
	for c.PendingTimers() > 0 {
		c.AdvanceTo(c.Now().Add(time.Duration(rng.Int63n(int64(20 * time.Minute)))))
		counters("drain")
	}
	return trace
}

// denseTimers is the size of simClockOps' dense round.
const denseTimers = 12000

// TestWheelMatchesHeapOracle is the determinism property test: for many
// seeds, the wheel-backed Virtual and the heap-backed VirtualHeap oracle
// must produce byte-identical event traces, clock readings, deadline
// reports, and pending, high-water and fired counts.
func TestWheelMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		v := NewVirtual()
		wheel := simClockOps(v, seed, func() {
			// The dense round must reach every wheel level and the overflow.
			for l := range v.levels {
				occupied := 0
				for _, s := range v.levels[l].slots {
					occupied += len(s)
				}
				if occupied == 0 {
					t.Fatalf("seed %d: dense round left wheel level %d empty", seed, l)
				}
			}
			if len(v.overflow.ns) == 0 {
				t.Fatalf("seed %d: dense round left the overflow heap empty", seed)
			}
		})
		if got := v.HighWaterTimers(); got < denseTimers {
			t.Fatalf("seed %d: HighWaterTimers() = %d, want at least %d resident", seed, got, denseTimers)
		}
		heap := simClockOps(NewVirtualHeap(), seed, nil)
		if len(wheel) != len(heap) {
			t.Fatalf("seed %d: trace lengths differ: wheel %d vs heap %d", seed, len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("seed %d: traces diverge at entry %d:\n  wheel: %s\n  heap:  %s", seed, i, wheel[i], heap[i])
			}
		}
	}
}

// TestWheelOverflowFarFuture pins the overflow slow path: a deadline
// beyond the wheel span must fire at its exact instant and in id order
// against near timers.
func TestWheelOverflowFarFuture(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.Post(90*time.Minute, func() { order = append(order, "far") }) // beyond the ~73 min span
	v.Post(time.Second, func() { order = append(order, "near") })
	v.Advance(time.Hour)
	if len(order) != 1 || order[0] != "near" {
		t.Fatalf("after 1h order = %v, want [near]", order)
	}
	v.Advance(time.Hour)
	if len(order) != 2 || order[1] != "far" {
		t.Fatalf("after 2h order = %v, want [near far]", order)
	}
	if got, want := v.Now(), time.Unix(0, 0).UTC().Add(2*time.Hour); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

// TestWheelOverflowStop covers lazy deletion inside the overflow heap.
func TestWheelOverflowStop(t *testing.T) {
	v := NewVirtual()
	fired := false
	tm := v.AfterFunc(100*time.Hour, func() { fired = true })
	if v.PendingTimers() != 1 {
		t.Fatalf("PendingTimers() = %d, want 1", v.PendingTimers())
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true")
	}
	if v.PendingTimers() != 0 {
		t.Fatalf("PendingTimers() after stop = %d, want 0", v.PendingTimers())
	}
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("NextDeadline() ok = true after stopping the only timer")
	}
	v.Advance(200 * time.Hour)
	if fired {
		t.Fatal("stopped overflow timer fired")
	}
}

// TestWheelNodeRecyclingHandleSafety pins the generation check: a Stop
// handle kept past the fire must stay inert even after its node has been
// recycled into a new timer.
func TestWheelNodeRecyclingHandleSafety(t *testing.T) {
	v := NewVirtual()
	h1 := v.AfterFunc(time.Second, func() {})
	v.Advance(2 * time.Second) // fires and recycles the node
	fired2 := false
	h2 := v.AfterFunc(time.Second, func() { fired2 = true }) // reuses the node
	if h1.Stop() {
		t.Fatal("stale handle Stop() = true; must not cancel the recycled node's new timer")
	}
	v.Advance(2 * time.Second)
	if !fired2 {
		t.Fatal("second timer did not fire — cancelled through a stale handle")
	}
	if h2.Stop() {
		t.Fatal("Stop() after fire = true, want false")
	}
}

// TestWheelPostAllocFree verifies the pooled hot path: once the free list
// is warm, a Post→fire cycle performs no heap allocation.
func TestWheelPostAllocFree(t *testing.T) {
	v := NewVirtual()
	f := func() {}
	// Warm the node pool.
	for i := 0; i < 100; i++ {
		v.Post(time.Millisecond, f)
	}
	v.Advance(time.Second)
	allocs := testing.AllocsPerRun(1000, func() {
		v.Post(time.Millisecond, f)
		v.Advance(time.Millisecond)
	})
	if allocs > 0.1 {
		t.Fatalf("warm Post→fire cycle allocates %.2f objects/op, want 0", allocs)
	}
}

// TestWheelCounters covers the campaign metrics surface.
func TestWheelCounters(t *testing.T) {
	for _, c := range []SimClock{NewVirtual(), NewVirtualHeap()} {
		for i := 0; i < 10; i++ {
			c.Post(time.Duration(i)*time.Millisecond, func() {})
		}
		if got := c.HighWaterTimers(); got != 10 {
			t.Fatalf("%T: HighWaterTimers() = %d, want 10", c, got)
		}
		c.Advance(time.Second)
		if got := c.FiredTimers(); got != 10 {
			t.Fatalf("%T: FiredTimers() = %d, want 10", c, got)
		}
		if got := c.HighWaterTimers(); got != 10 {
			t.Fatalf("%T: HighWaterTimers() after drain = %d, want 10", c, got)
		}
		if got := c.PendingTimers(); got != 0 {
			t.Fatalf("%T: PendingTimers() = %d, want 0", c, got)
		}
	}
}

// TestWheelManyTimersSpread stresses bucket relocation (the lazy cascade):
// timers spread across all wheel levels must fire in exact global order.
func TestWheelManyTimersSpread(t *testing.T) {
	v := NewVirtual()
	const n = 5000
	var fired []time.Time
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		// Mix sub-tick, level-0..3, and overflow deadlines.
		var d time.Duration
		switch i % 5 {
		case 0:
			d = time.Duration(rng.Int63n(int64(time.Microsecond)))
		case 1:
			d = time.Duration(rng.Int63n(int64(200 * time.Microsecond)))
		case 2:
			d = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		case 3:
			d = time.Duration(rng.Int63n(int64(10 * time.Second)))
		default:
			d = time.Duration(rng.Int63n(int64(3 * time.Hour)))
		}
		v.Post(d, func() { fired = append(fired, v.Now()) })
	}
	v.Advance(4 * time.Hour)
	if len(fired) != n {
		t.Fatalf("fired %d timers, want %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		if fired[i].Before(fired[i-1]) {
			t.Fatalf("timer %d fired at %v before previous %v", i, fired[i], fired[i-1])
		}
	}
	if got := v.HighWaterTimers(); got != n {
		t.Fatalf("HighWaterTimers() = %d, want %d", got, n)
	}
}

// BenchmarkClockPending measures the event core alone: schedule→fire
// churn with `pending` timers resident, the regime a 10⁵-endpoint
// campaign puts the clock in. The heap pays O(log n) sift cost plus a
// node allocation per event; the wheel buckets in O(1) from its pool.
func BenchmarkClockPending(b *testing.B) {
	for _, impl := range []struct {
		name string
		mk   func() SimClock
	}{
		{"wheel", func() SimClock { return NewVirtual() }},
		{"heap", func() SimClock { return NewVirtualHeap() }},
	} {
		for _, pending := range []int{1000, 100000} {
			b.Run(fmt.Sprintf("%s/pending=%d", impl.name, pending), func(b *testing.B) {
				c := impl.mk()
				f := func() {}
				// Resident long-lived timers (heartbeats of idle endpoints).
				for i := 0; i < pending; i++ {
					c.Post(time.Hour+time.Duration(i)*time.Microsecond, f)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Post(50*time.Microsecond, f)
					c.Advance(time.Microsecond)
				}
			})
		}
	}
}
