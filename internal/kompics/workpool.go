package kompics

import "sync"

// ring is a growable FIFO ring buffer: the run queue here and every
// component's mailbox. The previous slice-based queues popped with
// `queue = queue[1:]`, which both kept the vacated slot reachable
// (pinning the element for GC) and slid the window down the backing array
// so that steady traffic forced endless reallocation; the ring reuses its
// buffer in place.
type ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of queued elements
}

// push appends v at the tail, growing the ring when full.
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// pop removes and returns the front element, zeroing the vacated slot so
// the element is not pinned. Callers check q.n > 0 first.
func (q *ring[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

func (q *ring[T]) grow() {
	next := make([]T, max(16, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}

// WorkPool is the scheduler's worker-pool core, extracted so that other
// pipeline stages (the network's parallel codec stage) reuse it instead of
// hand-rolling a second pool: a fixed set of worker goroutines draining a
// growable FIFO ring under one mutex/cond, with a busy count that defines
// quiescence for AwaitIdle.
//
// run executes one item and reports whether the item must be requeued
// (the scheduler requeues components that still have runnable events).
// The requeue happens atomically with the worker going idle, so AwaitIdle
// cannot observe a false quiescence between "worker done" and "item back
// in the queue".
type WorkPool[T any] struct {
	run func(T) (requeue bool)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  ring[T]
	closed bool

	// busy counts items currently executing on a worker; together with an
	// empty queue it defines quiescence.
	busy    int
	idleCnd *sync.Cond

	wg sync.WaitGroup
}

// NewWorkPool starts a pool of workers goroutines (at least one) applying
// run to submitted items in FIFO admission order.
func NewWorkPool[T any](workers int, run func(T) bool) *WorkPool[T] {
	p := &WorkPool[T]{run: run}
	p.cond = sync.NewCond(&p.mu)
	p.idleCnd = sync.NewCond(&p.mu)
	if workers < 1 {
		workers = 1
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit places item at the tail of the queue; it reports false when the
// pool is closed (the item is dropped).
func (p *WorkPool[T]) Submit(item T) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.queue.push(item)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

func (p *WorkPool[T]) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.queue.n == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		item := p.queue.pop()
		p.busy++
		p.mu.Unlock()

		again := p.run(item)

		p.mu.Lock()
		p.busy--
		if again && !p.closed {
			p.queue.push(item)
			p.cond.Signal()
		}
		if p.busy == 0 && p.queue.n == 0 {
			p.idleCnd.Broadcast()
		}
		p.mu.Unlock()
	}
}

// Close stops all workers. Queued work is abandoned.
func (p *WorkPool[T]) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.idleCnd.Broadcast()
	p.wg.Wait()
}

// AwaitIdle blocks until the queue is empty and no item is executing, or
// the pool is closed. Quiescence is momentary: other goroutines may submit
// new work afterwards.
func (p *WorkPool[T]) AwaitIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for (p.queue.n > 0 || p.busy > 0) && !p.closed {
		p.idleCnd.Wait()
	}
}
