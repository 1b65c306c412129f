// Package bufpool is the middleware's size-classed buffer allocator — the
// role Netty's pooled ByteBuf allocator plays for the JVM implementation
// (§II-B of the paper). Every layer of the wire hot path (codec framing,
// transport readers and writers, core encode/decode) draws its scratch and
// payload buffers from here so that a steady-state message flow performs no
// heap allocation per message.
//
// # Ownership
//
// Get hands out a buffer; whoever holds it last calls Put. Returning a
// buffer is always optional — a dropped buffer is simply garbage collected
// — but the hot path is only allocation-free when buffers cycle. The wire
// path's contract is documented in DESIGN.md ("Hot path and buffer
// ownership"): the transport owns outgoing payloads from Send until the
// write outcome is decided, and inbound buffers are owned by the OnMessage
// consumer, which returns them after decoding.
//
// # Leak checking
//
// Tests can call SetDebug(true) to track the number of outstanding
// buffers (Gets minus Puts) and to poison returned buffers, catching both
// leaks and use-after-Put bugs. See Outstanding.
//
// Independent of debug mode, the pool keeps always-on per-size-class
// accounting (one uncontended atomic add per Get/Put): Account returns a
// snapshot of gets, puts, and outstanding buffers by class, which is what
// the soak harness's zero-leak invariant and the stats registry's bufpool
// gauges read. See Account.
package bufpool

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 1<<minShift to 1<<maxShift bytes.
// Requests above the largest class fall through to plain make and are not
// pooled; the frame limit (codec.DefaultMaxFrame, 1 MiB) fits the top
// class exactly.
const (
	minShift = 9  // 512 B
	maxShift = 20 // 1 MiB
)

// pools[i] holds buffers with cap >= 1<<(minShift+i). Entries are *[]byte
// (not []byte) so that Put does not heap-allocate an interface box per
// call; the boxes themselves cycle through boxPool.
var pools [maxShift - minShift + 1]sync.Pool

// boxPool recycles the *[]byte boxes used to move slices in and out of
// pools without per-call allocation.
var boxPool = sync.Pool{New: func() interface{} { return new([]byte) }}

var (
	debug       atomic.Bool
	outstanding atomic.Int64
)

// numClasses is the count of pooled size classes; accounting keeps one
// extra slot (index numClasses) for unpooled traffic — requests above the
// top class, which Get satisfies with plain make and Put drops.
const numClasses = maxShift - minShift + 1

// Always-on accounting: gets and puts per size class, plus the pooled
// bytes.Buffer pair. Get charges the class the request routes to; Put
// charges the class the returned capacity files under — for a buffer
// whose capacity never changed between Get and Put these agree, so
// per-class outstanding counts are exact on the wire hot path. A buffer
// regrown by append between Get and Put may settle its Put against a
// different class; the per-class numbers drift by the same amount in
// opposite directions while the total stays balanced (one Put per Get).
var (
	classGets  [numClasses + 1]atomic.Uint64
	classPuts  [numClasses + 1]atomic.Uint64
	bufferGets atomic.Uint64
	bufferPuts atomic.Uint64
)

// accountIndex maps a classFor/putClassFor result onto an accounting
// slot: pooled classes keep their index, everything else files under the
// unpooled slot.
func accountIndex(c int) int {
	if c < 0 || c >= numClasses {
		return numClasses
	}
	return c
}

// classFor returns the smallest size class whose buffers hold n bytes, or
// -1 when n is too large to pool.
func classFor(n int) int {
	if n > 1<<maxShift {
		return -1
	}
	c := 0
	for n > 1<<(minShift+c) {
		c++
	}
	return c
}

// putClassFor returns the largest size class whose buffers fit within cap
// c, or -1 when c is below the smallest class. A buffer stored in class i
// is guaranteed to satisfy any Get routed to class i.
func putClassFor(c int) int {
	if c < 1<<minShift {
		return -1
	}
	for i := maxShift - minShift; i >= 0; i-- {
		if c >= 1<<(minShift+i) {
			return i
		}
	}
	return -1
}

// Get returns a buffer of length n. Its capacity is at least n and usually
// the enclosing size class. The buffer's contents are unspecified — callers
// must overwrite before reading. Buffers above the largest size class are
// freshly allocated and will be dropped by Put.
func Get(n int) []byte {
	if debug.Load() {
		outstanding.Add(1)
	}
	c := classFor(n)
	classGets[accountIndex(c)].Add(1)
	if c < 0 {
		return make([]byte, n)
	}
	if v := pools[c].Get(); v != nil {
		bp := v.(*[]byte)
		b := *bp
		*bp = nil
		boxPool.Put(bp)
		return b[:n]
	}
	return make([]byte, n, 1<<(minShift+c))
}

// Put returns a buffer obtained from Get (or any other slice the caller
// owns outright) to the pool. The caller must not use b afterwards.
// Undersized and oversized buffers are silently dropped.
func Put(b []byte) {
	if debug.Load() {
		outstanding.Add(-1)
		poison(b)
	}
	c := putClassFor(cap(b))
	classPuts[accountIndex(c)].Add(1)
	if c < 0 {
		return
	}
	b = b[:0]
	bp := boxPool.Get().(*[]byte)
	*bp = b
	pools[c].Put(bp)
}

// poison overwrites a returned buffer so use-after-Put reads surface as
// corrupted data in debug runs. It writes one byte and then doubles the
// poisoned prefix with copy, so a buffer costs a few memmoves, not one
// store per byte (which the race detector would also instrument).
func poison(b []byte) {
	b = b[:cap(b)]
	for n := copy(b, []byte{0xA5}); n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// --- pooled bytes.Buffer ----------------------------------------------------

// maxPooledBuffer bounds the capacity of recycled bytes.Buffers, so one
// huge message cannot pin a huge buffer forever.
const maxPooledBuffer = 1 << maxShift

var bufferPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// GetBuffer returns an empty *bytes.Buffer from the pool.
func GetBuffer() *bytes.Buffer {
	if debug.Load() {
		outstanding.Add(1)
	}
	bufferGets.Add(1)
	return bufferPool.Get().(*bytes.Buffer)
}

// PutBuffer returns a buffer obtained from GetBuffer. The caller must not
// retain b or any slice previously returned by b.Bytes().
func PutBuffer(b *bytes.Buffer) {
	if debug.Load() {
		outstanding.Add(-1)
	}
	bufferPuts.Add(1)
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufferPool.Put(b)
}

// --- leak checking ----------------------------------------------------------

// SetDebug toggles leak accounting and buffer poisoning. Tests enable it,
// run a closed Get/Put cycle, and assert Outstanding returns to its
// starting value. Production code leaves it off (the accounting is cheap
// but the poisoning is not).
func SetDebug(on bool) { debug.Store(on) }

// Outstanding reports Gets minus Puts recorded while debug mode was on.
// Only meaningful for code paths that return every buffer.
func Outstanding() int64 { return outstanding.Load() }

// ResetStats zeroes the outstanding counter (call before a leak-checked
// test section).
func ResetStats() { outstanding.Store(0) }

// --- always-on accounting ---------------------------------------------------

// ClassAccount is one size class's slice of the accounting snapshot.
type ClassAccount struct {
	// Size is the class capacity in bytes; 0 marks the unpooled slot
	// (requests above the top class).
	Size int
	// Gets and Puts are cumulative since process start.
	Gets, Puts uint64
	// Outstanding is Gets − Puts: buffers drawn and not yet returned.
	Outstanding int64
}

// Accounting is a point-in-time snapshot of the pool's buffer flow.
// Because the counters are read class by class without a global lock, a
// snapshot taken while the pool is hot can be skewed by in-flight
// operations; totals are exact once the traffic that drew the buffers has
// quiesced, which is when leak checks read them.
type Accounting struct {
	// Classes lists the pooled size classes in ascending size order,
	// followed by the unpooled slot (Size 0).
	Classes []ClassAccount
	// Buffers tracks the pooled bytes.Buffer pair (GetBuffer/PutBuffer).
	Buffers ClassAccount
	// Outstanding is the total across every class and the Buffers slot.
	Outstanding int64
}

// Account returns the current accounting snapshot. Unlike Outstanding it
// needs no debug mode: the per-class counters are always on, costing one
// uncontended atomic add per Get/Put. The soak harness diffs two
// snapshots around a run to assert zero leaked buffers; the stats
// registry exports the totals as gauges.
func Account() Accounting {
	a := Accounting{Classes: make([]ClassAccount, numClasses+1)}
	for i := 0; i <= numClasses; i++ {
		gets, puts := classGets[i].Load(), classPuts[i].Load()
		size := 0
		if i < numClasses {
			size = 1 << (minShift + i)
		}
		a.Classes[i] = ClassAccount{
			Size: size, Gets: gets, Puts: puts,
			Outstanding: int64(gets) - int64(puts),
		}
		a.Outstanding += int64(gets) - int64(puts)
	}
	bg, bp := bufferGets.Load(), bufferPuts.Load()
	a.Buffers = ClassAccount{Gets: bg, Puts: bp, Outstanding: int64(bg) - int64(bp)}
	a.Outstanding += a.Buffers.Outstanding
	return a
}
