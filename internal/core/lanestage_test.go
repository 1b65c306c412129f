package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// laneProbe is the socket-free harness for the generic lane stage: jobs
// carry (lane, seq) and a seeded work delay, and the three stage funcs
// record what happened to each of them.
type laneProbe struct {
	t              *testing.T
	lanes, perLane int
	st             *laneStage[probeJob]

	worked    []atomic.Int32 // per job: times work ran
	released  []atomic.Int32 // per job: times release ran
	abandoned []atomic.Int32 // per job: times abandon ran
	settled   atomic.Int32   // releases + abandons so far

	mu    sync.Mutex
	order [][]int // per lane: seqs in release order
	// notify, when set, receives the running settle count after each one.
	notify func(settled int32)
}

type probeJob struct {
	lane, seq int
	delay     time.Duration
	worked    bool
}

// newLaneProbe builds a stage with at least four workers and the given
// inflight bound.
func newLaneProbe(t *testing.T, lanes, perLane, limit int) *laneProbe {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4) // the stage sizes its pool from GOMAXPROCS
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	p := &laneProbe{
		t: t, lanes: lanes, perLane: perLane,
		worked:    make([]atomic.Int32, lanes*perLane),
		released:  make([]atomic.Int32, lanes*perLane),
		abandoned: make([]atomic.Int32, lanes*perLane),
		order:     make([][]int, lanes),
	}
	p.st = newLaneStage(limit, p.work, p.release, p.abandon)
	return p
}

func (p *laneProbe) idx(j *probeJob) int { return j.lane*p.perLane + j.seq }

func (p *laneProbe) work(j *probeJob) {
	if j.delay > 0 {
		time.Sleep(j.delay)
	} else {
		runtime.Gosched()
	}
	j.worked = true
	p.worked[p.idx(j)].Add(1)
}

func (p *laneProbe) release(j *probeJob) {
	if !j.worked {
		p.t.Errorf("lane %d seq %d released without being worked", j.lane, j.seq)
	}
	p.mu.Lock()
	p.order[j.lane] = append(p.order[j.lane], j.seq)
	p.mu.Unlock()
	p.released[p.idx(j)].Add(1)
	p.settle()
}

func (p *laneProbe) abandon(j *probeJob) {
	if j.worked {
		p.t.Errorf("lane %d seq %d abandoned after being worked", j.lane, j.seq)
	}
	p.abandoned[p.idx(j)].Add(1)
	p.settle()
}

func (p *laneProbe) settle() {
	n := p.settled.Add(1)
	if p.notify != nil {
		p.notify(n)
	}
}

// produce submits every lane's jobs from one goroutine per lane (the
// stage's single-submitter-per-lane contract) with seeded work delays,
// and returns once all submit calls have returned.
func (p *laneProbe) produce(seed int64) {
	var wg sync.WaitGroup
	for l := 0; l < p.lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(l)))
			key := laneKey{proto: TCP, addr: fmt.Sprintf("lane-%d", l)}
			for s := 0; s < p.perLane; s++ {
				var d time.Duration
				if rng.Intn(16) == 0 {
					d = time.Duration(rng.Intn(100)) * time.Microsecond
				}
				p.st.submit(key, probeJob{lane: l, seq: s, delay: d})
			}
		}(l)
	}
	wg.Wait()
}

// checkSettled asserts the exactly-once contract for every job, that
// releases kept lane order, and that the stage's accounting returned to
// zero (nothing leaked in a lane or in the inflight count).
func (p *laneProbe) checkSettled() (released int) {
	t := p.t
	t.Helper()
	for i := range p.released {
		r, a, w := p.released[i].Load(), p.abandoned[i].Load(), p.worked[i].Load()
		if r+a != 1 {
			t.Fatalf("lane %d seq %d: %d release(s) + %d abandon(s), want exactly one settle",
				i/p.perLane, i%p.perLane, r, a)
		}
		if w != r {
			t.Fatalf("lane %d seq %d: worked %d time(s), released %d", i/p.perLane, i%p.perLane, w, r)
		}
		released += int(r)
	}
	for l, seqs := range p.order {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("lane %d released seq %d after %d — lane order violated", l, seqs[i], seqs[i-1])
			}
		}
	}
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	if p.st.inflight != 0 {
		t.Fatalf("inflight = %d after every job settled", p.st.inflight)
	}
	for k, l := range p.st.lanes {
		if l.pending != 0 {
			t.Fatalf("lane %v: pending = %d after every job settled", k, l.pending)
		}
	}
	return released
}

// TestLaneStageOrderProperty: K lanes × N jobs through a pool with an
// inflight bound far below the load (so pooled and inline work mix within
// each lane) and random work delays (so jobs finish out of order). Every
// job must be released exactly once, in its lane's submission order.
func TestLaneStageOrderProperty(t *testing.T) {
	const lanes, perLane, limit = 8, 150, 6
	p := newLaneProbe(t, lanes, perLane, limit)
	all := make(chan struct{})
	p.notify = func(n int32) {
		if n == lanes*perLane {
			close(all)
		}
	}
	p.produce(1)
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d jobs settled", p.settled.Load(), lanes*perLane)
	}
	p.st.close()
	if got := p.checkSettled(); got != lanes*perLane {
		t.Fatalf("released %d of %d jobs; none should have been abandoned before close", got, lanes*perLane)
	}
}

// TestLaneStageCloseMidStream closes the stage while producers are still
// submitting: worked jobs are released, everything else — queued in the
// pool, submitted after close, or caught between the two — is abandoned,
// and each job sees exactly one of the two.
func TestLaneStageCloseMidStream(t *testing.T) {
	const lanes, perLane, limit = 8, 150, 6
	p := newLaneProbe(t, lanes, perLane, limit)
	flowing := make(chan struct{})
	p.notify = func(n int32) {
		if n == lanes*perLane/4 {
			close(flowing)
		}
	}
	produced := make(chan struct{})
	go func() {
		p.produce(2)
		close(produced)
	}()
	<-flowing
	p.st.close()
	<-produced
	// close returned and so did every submit, so every job is settled.
	released := p.checkSettled()
	if released == 0 || released == lanes*perLane {
		t.Fatalf("released %d of %d: the close did not land mid-stream", released, lanes*perLane)
	}
}

// TestLaneStageSubmitRacesClose aims at the narrow window in which a
// submit has passed the closed check but not yet reached the pool: over
// many tiny stages, a close racing a burst of submits must neither settle
// a job twice nor strand one.
func TestLaneStageSubmitRacesClose(t *testing.T) {
	for round := 0; round < 200; round++ {
		p := newLaneProbe(t, 2, 8, 4)
		produced := make(chan struct{})
		go func() {
			p.produce(int64(round))
			close(produced)
		}()
		if round%2 == 0 {
			runtime.Gosched()
		}
		p.st.close()
		<-produced
		p.checkSettled()
	}
}

// TestLaneStageReclaimsIdleLanes is the regression test for the unbounded
// lane table: 1 000 lanes that each carry one job and never recur (an
// inbound peer's ephemeral address after every reconnect) must not leave
// 1 000 lanes behind.
func TestLaneStageReclaimsIdleLanes(t *testing.T) {
	released := make(chan struct{}, 1)
	st := newLaneStage(stageInflight,
		func(*int) {},
		func(*int) { released <- struct{}{} },
		func(*int) { t.Error("job abandoned on an open stage") })
	defer st.close()
	for i := 0; i < 1000; i++ {
		st.submit(laneKey{proto: TCP, addr: fmt.Sprintf("127.0.0.1:%d", 30000+i)}, i)
		<-released
	}
	st.mu.Lock()
	n := len(st.lanes)
	st.mu.Unlock()
	if n > 2*minLaneSweep {
		t.Fatalf("%d lanes retained after 1000 single-job lanes, want at most %d", n, 2*minLaneSweep)
	}
}
