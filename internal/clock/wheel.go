package clock

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a manually advanced Clock for deterministic tests and
// simulations. Time only moves when Advance or AdvanceTo is called; due
// timers fire synchronously, in (deadline, creation-id) order, on the
// advancing goroutine. The zero value starts at the zero time; NewVirtual
// starts at the Unix epoch to make timestamps readable.
//
// Internally Virtual is a hierarchical timer wheel: wheelLevels levels of
// wheelSlots buckets each, at a base granularity of one tick
// (2^tickShift ns ≈ 1 µs), backed by per-level occupancy bitmaps. A timer
// is bucketed by the highest tick digit in which its deadline differs from
// the cursor, which keeps every level's buckets in strictly increasing
// deadline order from the cursor outward — so "earliest pending timer" is
// the cheapest entry of each level's first occupied bucket, found by a
// bitmap scan instead of a heap walk. Deadlines beyond the wheel span
// (~2.4 virtual hours) go to an overflow min-heap and are fired straight
// from it; cancellation is lazy (Stop flips a flag and the node is
// recycled when next encountered), and a live counter makes PendingTimers
// O(1). Timer nodes come from a per-clock free list, so a steady event
// flow through Post/PostArg allocates nothing once the pool is warm.
// Deadlines are carried as int64 Unix nanoseconds throughout, so the hot
// comparison paths never touch time.Time.
//
// Exact (deadline, creation-id) firing order — including ties and
// callbacks that schedule into the current instant — is property-tested
// against a binary-heap oracle kept in the package's tests.
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	nowNS    int64
	nowCheap atomic.Int64 // mirror of nowNS for the lock-free NowNanos
	baseNS   int64        // tick origin; set on first use
	baseSet  bool
	nextID   int64
	curTick  int64

	levels   [wheelLevels]wheelLevel
	cand     [wheelLevels]*wnode                // cached per-level minimum; nil = rescan
	spares   [wheelLevels][wheelSpares][]*wnode // recycled oversized bucket arrays; see dropBucket
	overflow wheelOverflow

	free []*wnode // recycled timer nodes

	live  int
	hwm   int
	fired uint64
}

var _ Clock = (*Virtual)(nil)

const (
	// tickShift sets the base granularity: 2^10 ns = 1.024 µs per tick.
	// Deadlines within one tick are ordered exactly by (time, id) when the
	// bucket drains, so granularity affects bucketing, never firing order.
	tickShift = 10
	// wheelBits slots-per-level exponent: 2048 buckets per level. Wide
	// levels keep common timer horizons (heartbeats, retransmission
	// timeouts, detector periods — milliseconds to seconds) one level
	// deep, so most nodes cascade once instead of twice on their way to
	// firing.
	wheelBits  = 11
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	// wheelLevels levels cover 2^(11*3) ticks ≈ 2.4 hours of virtual
	// time; anything farther out lives in the overflow heap until it
	// comes due.
	wheelLevels = 3

	// node location markers (wnode.lvl) outside the wheel levels.
	lvlOverflow = -1
	lvlFree     = -2

	// bucketRetainCap bounds the backing array kept by an emptied bucket.
	// Top-level buckets concentrate huge node populations (every timer
	// with the same coarse deadline digit — easily 10⁵ nodes each at
	// campaign scale), so retaining their grown slices across the cursor
	// wrap would pin hundreds of MB of pointer arrays the GC must also
	// scan every cycle; those are dropped when emptied. Buckets at or
	// below the cap (level 0's constantly churning ones and level 1's
	// steady-state ones) keep their arrays, so the per-wrap refill cycle
	// allocates nothing — without this, bucket reallocation was the
	// wheel's entire steady-state allocation rate.
	bucketRetainCap = 32768

	// wheelSpares is how many dropped oversized arrays each level parks
	// for reuse. Several top-level buckets fill concurrently (one per
	// distinct timer horizon crossing the level's digit boundary), so a
	// single spare would leave the others reallocating every wrap.
	wheelSpares = 3
)

// wnode is one scheduled event. Nodes are owned by the clock and recycled
// through the free list; gen disambiguates a recycled node from the timer
// a caller still holds a handle to.
type wnode struct {
	id      int64
	gen     uint32
	lvl     int8 // wheel level, lvlOverflow, or lvlFree
	stopped bool
	slot    int16 // bucket index while on a wheel level
	hx      int32 // heap index while in overflow
	tick    int64 // deadline in ticks since base (wheel levels only)
	whenNS  int64 // deadline, Unix nanoseconds
	f       func()
	fa      func(any)
	arg     any
}

// wheelLevel is one ring of buckets plus its occupancy bitmap.
type wheelLevel struct {
	slots [wheelSlots][]*wnode
	occ   [wheelSlots / 64]uint64
}

func (l *wheelLevel) setBit(i int)   { l.occ[i>>6] |= 1 << (uint(i) & 63) }
func (l *wheelLevel) clearBit(i int) { l.occ[i>>6] &^= 1 << (uint(i) & 63) }

// nextSet returns the first occupied bucket index in [from, upto), or -1.
func (l *wheelLevel) nextSet(from, upto int) int {
	for i := from; i < upto; {
		w := l.occ[i>>6] >> (uint(i) & 63)
		if w != 0 {
			j := i + bits.TrailingZeros64(w)
			if j >= upto {
				return -1
			}
			return j
		}
		i = (i &^ 63) + 64
	}
	return -1
}

// NewVirtual returns a virtual clock positioned at the Unix epoch.
func NewVirtual() *Virtual {
	v := &Virtual{now: time.Unix(0, 0).UTC(), baseSet: true}
	return v
}

// initLocked anchors the tick origin for zero-value clocks.
func (v *Virtual) initLocked() {
	if !v.baseSet {
		v.nowNS = v.now.UnixNano()
		v.nowCheap.Store(v.nowNS)
		v.baseNS = v.nowNS
		v.baseSet = true
	}
}

// setNowLocked moves the cursor; t is when's time.Time form when the
// caller has it (saving a reconstruction), or the zero Time.
func (v *Virtual) setNowLocked(whenNS int64, t time.Time) {
	v.nowNS = whenNS
	v.nowCheap.Store(whenNS)
	if t.IsZero() {
		v.now = time.Unix(0, whenNS).UTC()
	} else {
		v.now = t
	}
	v.curTick = v.tickOf(whenNS)
}

// tickOf converts Unix nanoseconds to ticks since base, saturating on
// overflow so absurdly distant deadlines route into the overflow heap
// (compared there by whenNS, so ordering stays exact).
func (v *Virtual) tickOf(ns int64) int64 {
	d := ns - v.baseNS
	if d < 0 && ns > v.baseNS {
		d = math.MaxInt64
	}
	return d >> tickShift
}

// nodeLess is the global firing order: deadline, then creation id.
func nodeLess(a, b *wnode) bool {
	if a.whenNS != b.whenNS {
		return a.whenNS < b.whenNS
	}
	return a.id < b.id
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// NowNanos reports the current instant in Unix nanoseconds, readable
// without taking the clock lock. Hot simulation paths (per-event
// timestamping) use this instead of Now, which would otherwise be the
// hottest lock in a million-event campaign.
func (v *Virtual) NowNanos() int64 { return v.nowCheap.Load() }

// AfterFunc implements Clock. The callback runs during a future Advance
// call, on the goroutine calling Advance. The returned handle pins the
// node's generation, so Stop on an already-recycled node safely reports
// false.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := v.scheduleLocked(d, f, nil, nil)
	return &wheelTimer{v: v, n: n, gen: n.gen}
}

// Post schedules f like AfterFunc but returns no handle, so the node is
// recycled the moment it fires: a posted event costs no allocation once
// the node pool is warm.
func (v *Virtual) Post(d time.Duration, f func()) {
	v.mu.Lock()
	v.scheduleLocked(d, f, nil, nil)
	v.mu.Unlock()
}

// PostArg is Post for callbacks that need one argument. Passing the
// argument through the timer node instead of a fresh closure lets callers
// reuse a single func value for millions of events.
func (v *Virtual) PostArg(d time.Duration, f func(any), arg any) {
	v.mu.Lock()
	v.scheduleLocked(d, nil, f, arg)
	v.mu.Unlock()
}

// scheduleLocked allocates (or recycles) a node and places it in the
// wheel or the overflow heap.
func (v *Virtual) scheduleLocked(d time.Duration, f func(), fa func(any), arg any) *wnode {
	v.initLocked()
	if d < 0 {
		d = 0
	}
	var n *wnode
	if k := len(v.free); k > 0 {
		n = v.free[k-1]
		v.free[k-1] = nil
		v.free = v.free[:k-1]
	} else {
		n = new(wnode)
	}
	v.nextID++
	n.id = v.nextID
	n.stopped = false
	n.whenNS = v.nowNS + int64(d)
	if n.whenNS < v.nowNS { // duration overflow: saturate
		n.whenNS = math.MaxInt64
	}
	n.f, n.fa, n.arg = f, fa, arg
	v.live++
	if v.live > v.hwm {
		v.hwm = v.live
	}
	v.placeLocked(n)
	return n
}

// placeLocked buckets n by the highest tick digit in which its deadline
// differs from the cursor. Digits above the chosen level equal the
// cursor's, which is the invariant that keeps each level's occupied
// buckets in strictly increasing deadline order from the cursor outward.
func (v *Virtual) placeLocked(n *wnode) {
	tick := v.tickOf(n.whenNS)
	if tick < v.curTick {
		tick = v.curTick // due immediately; keep cursor invariants intact
	}
	n.tick = tick
	lvl := levelOf(tick ^ v.curTick)
	if lvl >= wheelLevels {
		n.lvl = lvlOverflow
		v.overflow.push(n)
		return
	}
	v.insertAt(n, lvl)
}

// levelOf maps a tick XOR to the wheel level of the highest differing
// digit (0 for "same tick").
func levelOf(xor int64) int {
	if xor == 0 {
		return 0
	}
	return (bits.Len64(uint64(xor)) - 1) / wheelBits
}

func (v *Virtual) insertAt(n *wnode, lvl int) {
	slot := int((n.tick >> (uint(lvl) * wheelBits)) & wheelMask)
	n.lvl = int8(lvl)
	n.slot = int16(slot)
	lev := &v.levels[lvl]
	s := lev.slots[slot]
	if s == nil {
		// A previously dropped oversized array restarts this bucket with
		// its full capacity, so the coarse-level fill/drain cycle reuses
		// a few big arrays per level instead of reallocating every pass.
		sp := &v.spares[lvl]
		best := -1
		for i := range sp {
			if sp[i] != nil && (best < 0 || cap(sp[i]) > cap(sp[best])) {
				best = i
			}
		}
		if best >= 0 {
			s = sp[best]
			sp[best] = nil
		}
	}
	lev.slots[slot] = append(s, n)
	lev.setBit(slot)
	if c := v.cand[lvl]; c != nil && nodeLess(n, c) {
		v.cand[lvl] = n
	}
}

// dropBucket disposes of an emptied bucket's backing array: small arrays
// stay in place for reuse, oversized ones are parked in the level's spare
// set (evicting the smallest) so the next filling buckets can take them
// over.
func (v *Virtual) dropBucket(lvl int, s []*wnode) []*wnode {
	if cap(s) <= bucketRetainCap {
		return s
	}
	sp := &v.spares[lvl]
	min := 0
	for i := 1; i < len(sp); i++ {
		if cap(sp[i]) < cap(sp[min]) {
			min = i
		}
	}
	if cap(s) > cap(sp[min]) {
		sp[min] = s[:0]
	}
	return nil
}

// nextLocked returns the earliest live timer, or nil. Levels are scanned
// top-down because pruning a high level can relocate entries into lower
// levels (the lazy cascade); by the time low levels are read their caches
// reflect every relocation.
func (v *Virtual) nextLocked() *wnode {
	v.initLocked()
	var best *wnode
	for l := wheelLevels - 1; l >= 0; l-- {
		c := v.cand[l]
		if c == nil {
			c = v.scanLevel(l)
			v.cand[l] = c
		}
		if c != nil && (best == nil || nodeLess(c, best)) {
			best = c
		}
	}
	if o := v.overflowPeekLocked(); o != nil && (best == nil || nodeLess(o, best)) {
		best = o
	}
	return best
}

// scanLevel finds the level's minimum live entry: the cheapest entry of
// the first occupied bucket in circular order from the cursor's digit.
// Along the way it recycles stopped nodes (lazy deletion) and relocates
// entries whose deadline digit now matches the cursor at this level into
// lower levels — the classic wheel cascade, performed lazily on access so
// each node moves at most wheelLevels times over its life.
func (v *Virtual) scanLevel(l int) *wnode {
	lev := &v.levels[l]
	start := int((v.curTick >> (uint(l) * wheelBits)) & wheelMask)
	segs := [2][2]int{{start, wheelSlots}, {0, start}}
	for _, seg := range segs {
		for i := seg[0]; ; i++ {
			i = lev.nextSet(i, seg[1])
			if i < 0 {
				break
			}
			if min := v.pruneSlot(l, i); min != nil {
				return min
			}
			// Bucket emptied by pruning; bit already cleared.
		}
	}
	return nil
}

// pruneSlot drops stopped entries, relocates entries that belong below
// level l, and returns the minimum of what remains (nil if the bucket
// emptied).
func (v *Virtual) pruneSlot(l, slot int) *wnode {
	lev := &v.levels[l]
	s := lev.slots[slot]
	var min *wnode
	for j := 0; j < len(s); {
		n := s[j]
		if n.stopped {
			s[j] = s[len(s)-1]
			s[len(s)-1] = nil
			s = s[:len(s)-1]
			v.recycleLocked(n)
			continue
		}
		if nl := levelOf(n.tick ^ v.curTick); nl < l {
			s[j] = s[len(s)-1]
			s[len(s)-1] = nil
			s = s[:len(s)-1]
			v.insertAt(n, nl)
			continue
		}
		if min == nil || nodeLess(n, min) {
			min = n
		}
		j++
	}
	if len(s) == 0 {
		lev.clearBit(slot)
		s = v.dropBucket(l, s)
	}
	lev.slots[slot] = s
	return min
}

// overflowPeekLocked returns the earliest live overflow entry, recycling
// stopped entries that have bubbled to the root.
func (v *Virtual) overflowPeekLocked() *wnode {
	for {
		n := v.overflow.peek()
		if n == nil || !n.stopped {
			return n
		}
		v.overflow.pop()
		v.recycleLocked(n)
	}
}

// removeForFireLocked detaches the (already located) global minimum from
// its container.
func (v *Virtual) removeForFireLocked(n *wnode) {
	if n.lvl == lvlOverflow {
		v.overflow.pop() // n is the pruned root
		return
	}
	lvl, slot := int(n.lvl), int(n.slot)
	lev := &v.levels[lvl]
	s := lev.slots[slot]
	for j := range s {
		if s[j] == n {
			s[j] = s[len(s)-1]
			s[len(s)-1] = nil
			lev.slots[slot] = s[:len(s)-1]
			break
		}
	}
	if s := lev.slots[slot]; len(s) == 0 {
		lev.clearBit(slot)
		lev.slots[slot] = v.dropBucket(lvl, s)
	}
	if v.cand[lvl] == n {
		v.cand[lvl] = nil
	}
}

// recycleLocked returns a node to the free list. Bumping gen invalidates
// any outstanding Stop handle.
func (v *Virtual) recycleLocked(n *wnode) {
	n.gen++
	n.f, n.fa, n.arg = nil, nil, nil
	n.lvl = lvlFree
	v.free = append(v.free, n)
}

// Advance moves the clock forward by d, firing every timer that becomes
// due, in order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.AdvanceTo(target)
}

// AdvanceTo moves the clock forward to instant t, firing every timer due
// at or before t in timestamp order (ties break in creation order). Timers
// scheduled by fired callbacks are honoured if they fall within the
// window.
func (v *Virtual) AdvanceTo(t time.Time) {
	tNS := t.UnixNano()
	for {
		v.mu.Lock()
		v.initLocked()
		if tNS < v.nowNS {
			v.mu.Unlock()
			return
		}
		n := v.nextLocked()
		if n == nil || n.whenNS > tNS {
			v.setNowLocked(tNS, t)
			v.mu.Unlock()
			return
		}
		v.removeForFireLocked(n)
		v.setNowLocked(n.whenNS, time.Time{})
		v.live--
		v.fired++
		f, fa, arg := n.f, n.fa, n.arg
		v.recycleLocked(n)
		v.mu.Unlock()
		if fa != nil {
			fa(arg)
		} else {
			f()
		}
	}
}

// PendingTimers reports how many timers are scheduled and not yet fired or
// stopped. O(1) — the wheel maintains a live counter.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.live
}

// NextDeadline returns the due time of the earliest pending timer. The
// boolean result is false when no timer is pending. Amortized O(1): the
// per-level minima are cached and lazily rebuilt.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := v.nextLocked(); n != nil {
		return time.Unix(0, n.whenNS).UTC(), true
	}
	return time.Time{}, false
}

// HighWaterTimers reports the maximum number of concurrently pending
// timers observed since the clock was created.
func (v *Virtual) HighWaterTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.hwm
}

// FiredTimers reports the total number of timer callbacks executed.
func (v *Virtual) FiredTimers() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fired
}

// wheelTimer is the Stop handle returned by AfterFunc. It captures the
// node's generation at schedule time so a handle kept past the fire (and
// the node's recycling) stays inert.
type wheelTimer struct {
	v   *Virtual
	n   *wnode
	gen uint32
}

func (t *wheelTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	n := t.n
	if n.gen != t.gen || n.stopped {
		return false
	}
	n.stopped = true
	t.v.live--
	if n.lvl >= 0 && t.v.cand[n.lvl] == n {
		t.v.cand[n.lvl] = nil
	}
	return true
}

// wheelOverflow is a binary min-heap ordered by (whenNS, id) holding
// timers beyond the wheel span. It is the slow path: far-future deadlines
// are rare, and entries fire straight from the heap when they become the
// global minimum.
type wheelOverflow struct {
	ns []*wnode
}

func (h *wheelOverflow) less(i, j int) bool { return nodeLess(h.ns[i], h.ns[j]) }

func (h *wheelOverflow) swap(i, j int) {
	h.ns[i], h.ns[j] = h.ns[j], h.ns[i]
	h.ns[i].hx = int32(i)
	h.ns[j].hx = int32(j)
}

func (h *wheelOverflow) push(n *wnode) {
	h.ns = append(h.ns, n)
	i := len(h.ns) - 1
	n.hx = int32(i)
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *wheelOverflow) peek() *wnode {
	if len(h.ns) == 0 {
		return nil
	}
	return h.ns[0]
}

func (h *wheelOverflow) pop() *wnode {
	n := len(h.ns)
	if n == 0 {
		return nil
	}
	top := h.ns[0]
	h.swap(0, n-1)
	h.ns[n-1] = nil
	h.ns = h.ns[:n-1]
	i, n := 0, n-1
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return top
}
