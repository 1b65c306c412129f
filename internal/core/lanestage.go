package core

// The ordered lane stage is the one mechanism both directions of the
// pipeline use to lift per-message CPU work — encode on the way out,
// decode on the way in — off a single thread onto a bounded worker pool
// without giving up per-peer order, the same move the Kompics paper makes
// with multi-core component scheduling [5] and Netty with its multi-loop
// EventLoopGroup. codecStage and decodeStage (codecstage.go,
// decodestage.go) are its two instantiations; they only say what work,
// release and abandon mean for their payload. What the stage guarantees:
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
//     it has been released, so keys that never recur (an inbound peer's
//     ephemeral address) do not accumulate.

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

// laneKey identifies a lane: the wire protocol plus the remote socket
// address — the destination on the send side (UDT port shift applied),
// the origin transport.From.Peer on the receive side.
type laneKey struct {
	proto Transport
	addr  string
}

// laneJob is one job's trip through the stage: appended to its lane by
// submit, worked on a pool worker (or inline at the bound), and settled by
// whichever goroutine drains the lane's head.
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

	mu   sync.Mutex //kmlint:guarded
	jobs []*laneJob[T]
	// draining makes settling single-threaded per lane without holding mu
	// across release: exactly one goroutine pops done heads at a time.
	draining bool
}

// laneStage owns the worker pool and the lane table. It is single-use:
// one per direction per Network start.
type laneStage[T any] struct {
	// work runs once per job that reaches a worker, concurrently with
	// other jobs of any lane; release then runs in lane order. abandon
	// runs instead of both for a job that never reaches a worker. None is
	// called under a stage or lane lock.
	work, release, abandon func(*T)
	pool                   *kompics.WorkPool[*laneJob[T]]
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
		limit:   limit,
		lanes:   make(map[laneKey]*lane[T]),
		sweepAt: minLaneSweep,
	}
	st.pool = kompics.NewWorkPool(runtime.GOMAXPROCS(0), st.run)
	return st
}

// submit sequences one job on key's lane. Lane order is the order in
// which submit calls for that lane are made, so each lane needs a single
// submitting goroutine at a time (the component thread on the send side,
// the connection's read goroutine on the receive side).
func (st *laneStage[T]) submit(key laneKey, v T) {
	job := &laneJob[T]{v: v}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		st.abandon(&job.v)
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
	job.lane = l
	job.inline = st.inflight >= st.limit
	st.inflight++
	st.mu.Unlock()

	l.mu.Lock()
	l.jobs = append(l.jobs, job)
	l.mu.Unlock()

	if job.inline {
		st.run(job)
	} else if !st.pool.Submit(job) {
		// The stage closed after the check above; close may already have
		// swept this lane, so settle the job from here as well.
		st.settle(job, true)
	}
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
	st.settle(job, false)
	return false
}

// settle marks a job done — worked, or abandoned because it will never
// reach a worker — and drains its lane. The first mark stands: close's
// sweep and a submit that lost the race with it may both abandon the same
// job, and only one of them counts.
func (st *laneStage[T]) settle(job *laneJob[T], abandoned bool) {
	l := job.lane
	l.mu.Lock()
	if !job.done {
		job.done, job.abandoned = true, abandoned
	}
	l.mu.Unlock()
	st.drain(l)
}

// drain settles the lane's done head-run in submission order.
func (st *laneStage[T]) drain(l *lane[T]) {
	l.mu.Lock()
	if l.draining {
		l.mu.Unlock()
		return
	}
	l.draining = true
	for {
		var ready []*laneJob[T]
		for len(l.jobs) > 0 && l.jobs[0].done {
			ready = append(ready, l.jobs[0])
			l.jobs = l.jobs[1:]
		}
		if len(l.jobs) == 0 {
			l.jobs = nil // unpin the drained backing array
		}
		if len(ready) == 0 {
			l.draining = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		for _, j := range ready {
			if j.abandoned {
				st.abandon(&j.v)
			} else {
				st.release(&j.v)
			}
		}
		st.mu.Lock()
		st.inflight -= len(ready)
		l.pending -= len(ready)
		st.mu.Unlock()
		l.mu.Lock()
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
		for _, j := range l.jobs {
			if !j.done && !j.inline {
				j.done, j.abandoned = true, true
			}
		}
		l.mu.Unlock()
		st.drain(l)
	}
}
