package core

// The ordered lane stage lifts per-message CPU work — encode, on the send
// path — off the single Network component thread onto a bounded worker
// pool without giving up per-peer order, the same move the Kompics paper
// makes with multi-core component scheduling [5] and Netty with its
// multi-loop EventLoopGroup. codecStage (codecstage.go) is its one
// instantiation; it only says what work, release and abandon mean for its
// payload. The receive path needs no stage: each stream connection's read
// goroutine decodes its own batches (Network.receive), which already keeps
// per-peer order and decodes different peers in parallel. The type stays
// generic so its suite can drive it with a probe job. What the stage
// guarantees:
//
//   - FIFO per lane: jobs are released in the order they were submitted
//     to their lane, even though workers finish them out of order — a
//     sequencer holds each worked job until every earlier job of the same
//     lane has been released. Jobs of one lane are still worked in
//     parallel (a lane is not a serial actor), and different lanes release
//     independently, so one slow job never head-of-line-blocks the others.
//   - Exactly once: every submitted job is settled by exactly one call,
//     in lane order — release after work ran, or abandon when the stage
//     closed before the job reached a worker.
//   - Bounded, never blocking: at the inflight bound the submitter works
//     its job inline. The job still rides its lane, so order holds, and
//     the stall is confined to the goroutine that is overrunning the pool.
//   - Bounded lane table: a lane is reclaimed once everything submitted to
//     it has been released, so keys that never recur (a churning
//     destination set) do not accumulate.

import (
	"runtime"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// stageInflight bounds the jobs submitted to a stage and not yet settled
// (through Network.stageLimit, which tests shrink to force the inline
// path).
const stageInflight = 256

// minLaneSweep is the lane-table size below which no reclaim sweep runs.
const minLaneSweep = 64

// laneKey identifies a lane: the wire protocol plus the destination
// socket address (UDT port shift applied).
type laneKey struct {
	proto Transport
	addr  string
}

// maxLaneCap bounds the job slice a drained lane keeps for its next
// submits; a lane that once held more lets the slice go.
const maxLaneCap = 256

// laneJob is one job's trip through the stage: appended to its lane by
// submit, worked on a pool worker (or inline at the bound), and settled by
// whichever goroutine drains the lane's head. Jobs are pooled: once its
// lane has settled it, nothing references a job until submit reuses it.
type laneJob[T any] struct {
	v    T
	lane *lane[T]
	// inline marks a job its submitter works at the inflight bound; close
	// leaves it to that goroutine. Written before the job is shared.
	inline bool
	// done and abandoned are set once, under lane.mu.
	done, abandoned bool
}

// lane is the per-key sequencer: jobs in submission order, settled from
// the head only when done.
type lane[T any] struct {
	// pending counts jobs submitted and not yet settled. Guarded by the
	// stage mutex, not mu: it decides reclaim, which is a lane-table
	// operation.
	pending int

	mu sync.Mutex //kmlint:guarded
	// jobs[head:] are the lane's unsettled jobs; the settled prefix is
	// reclaimed when the lane empties or an append finds the slice full.
	jobs []*laneJob[T]
	head int
	// draining makes settling single-threaded per lane without holding mu
	// across release: exactly one goroutine pops done heads at a time.
	draining bool
}

// laneStage owns the worker pool and the lane table. It is single-use:
// one per Network start.
type laneStage[T any] struct {
	// work runs once per job that reaches a worker, concurrently with
	// other jobs of any lane; release then runs in lane order. abandon
	// runs instead of both for a job that never reaches a worker. None is
	// called under a stage or lane lock.
	work, release, abandon func(*T)
	pool                   *kompics.WorkPool[*laneJob[T]]
	jobs                   sync.Pool // settled *laneJob[T]s, for reuse
	limit                  int

	mu     sync.Mutex //kmlint:guarded
	lanes  map[laneKey]*lane[T]
	closed bool
	// inflight counts submitted-but-unsettled jobs across all lanes.
	inflight int
	// sweepAt is the lane count at which the next new lane triggers a
	// reclaim sweep; it doubles with the surviving table, so the sweep is
	// amortised constant per lane created and free for a stable lane set.
	sweepAt int
}

func newLaneStage[T any](limit int, work, release, abandon func(*T)) *laneStage[T] {
	st := &laneStage[T]{
		work: work, release: release, abandon: abandon,
		jobs:    sync.Pool{New: func() any { return new(laneJob[T]) }},
		limit:   limit,
		lanes:   make(map[laneKey]*lane[T]),
		sweepAt: minLaneSweep,
	}
	st.pool = kompics.NewWorkPool(runtime.GOMAXPROCS(0), st.run)
	return st
}

// submit sequences one job on key's lane. Lane order is the order in
// which submit calls for that lane are made, so each lane needs a single
// submitting goroutine at a time (the Network component thread).
//
// The job joins its lane under the stage lock, so a close that follows
// sees it: if the pool refuses the job, close has abandoned it (or will)
// and submit must not touch it again.
func (st *laneStage[T]) submit(key laneKey, v T) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		// A heap copy, so that v itself does not escape on every submit.
		j := &laneJob[T]{v: v}
		st.abandon(&j.v)
		return
	}
	l := st.lanes[key]
	if l == nil {
		if len(st.lanes) >= st.sweepAt {
			st.sweepLocked()
		}
		l = &lane[T]{}
		st.lanes[key] = l
	}
	l.pending++
	inline := st.inflight >= st.limit
	job := st.jobs.Get().(*laneJob[T])
	*job = laneJob[T]{v: v, lane: l, inline: inline}
	st.inflight++
	l.push(job)
	st.mu.Unlock()

	if inline {
		st.run(job)
	} else {
		st.pool.Submit(job)
	}
}

// push appends a job, first sliding the unsettled run to the front when
// the slice is full and a settled prefix can be reclaimed.
func (l *lane[T]) push(job *laneJob[T]) {
	l.mu.Lock()
	if l.head > 0 && len(l.jobs) == cap(l.jobs) {
		n := copy(l.jobs, l.jobs[l.head:])
		clear(l.jobs[n:])
		l.jobs, l.head = l.jobs[:n], 0
	}
	l.jobs = append(l.jobs, job)
	l.mu.Unlock()
}

// sweepLocked reclaims every lane with nothing pending. Such a lane's
// jobs have all been settled — pending drops only after release returns —
// so a lane re-created for the same key can never overtake it.
func (st *laneStage[T]) sweepLocked() {
	for k, l := range st.lanes {
		if l.pending == 0 {
			delete(st.lanes, k)
		}
	}
	st.sweepAt = max(minLaneSweep, 2*len(st.lanes))
}

// run works one job and settles every ready lane head. It is the WorkPool
// run function (never requeues) and the inline path at the bound.
func (st *laneStage[T]) run(job *laneJob[T]) bool {
	st.work(&job.v)
	l := job.lane
	l.mu.Lock()
	job.done = true
	l.mu.Unlock()
	st.drain(l)
	return false
}

// drain settles the lane's done head-run in submission order, one job at
// a time, and recycles each settled job.
func (st *laneStage[T]) drain(l *lane[T]) {
	settled := 0
	for {
		l.mu.Lock()
		if settled == 0 {
			if l.draining {
				l.mu.Unlock()
				return
			}
			l.draining = true
		}
		if l.head == len(l.jobs) || !l.jobs[l.head].done {
			if l.head == len(l.jobs) {
				// Drained: keep the slice for the next submits unless
				// a burst grew it past the cap.
				if cap(l.jobs) > maxLaneCap {
					l.jobs = nil
				}
				l.jobs, l.head = l.jobs[:0], 0
			}
			l.draining = false
			l.mu.Unlock()
			break
		}
		j := l.jobs[l.head]
		l.jobs[l.head] = nil
		l.head++
		l.mu.Unlock()

		if j.abandoned {
			st.abandon(&j.v)
		} else {
			st.release(&j.v)
		}
		*j = laneJob[T]{}
		st.jobs.Put(j)
		settled++
	}
	if settled > 0 {
		st.mu.Lock()
		st.inflight -= settled
		l.pending -= settled
		st.mu.Unlock()
	}
}

// close stops the workers and abandons every job that has not reached
// one. Jobs already worked are still released; a job being worked inline
// is settled by its submitter, which may outlive close.
func (st *laneStage[T]) close() {
	st.mu.Lock()
	st.closed = true
	lanes := make([]*lane[T], 0, len(st.lanes))
	for _, l := range st.lanes {
		lanes = append(lanes, l)
	}
	st.mu.Unlock()

	// Workers finish the jobs they hold (settling them) and exit; queued
	// jobs no worker picked up stay pending in their lanes.
	st.pool.Close()
	for _, l := range lanes {
		l.mu.Lock()
		for _, j := range l.jobs[l.head:] {
			if !j.done && !j.inline {
				j.done, j.abandoned = true, true
			}
		}
		l.mu.Unlock()
		st.drain(l)
	}
}
