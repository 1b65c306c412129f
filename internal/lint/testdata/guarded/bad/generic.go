// generic.go seeds guarded bugs in a generic struct — the shape of
// core's ordered lane stage, whose methods see the guarded fields through
// an instantiated receiver.
package bad

import "sync"

type seqLane[T any] struct {
	mu   sync.Mutex //kmlint:guarded
	jobs []*T
}

type seqStage[T any] struct {
	mu    sync.Mutex //kmlint:guarded
	lanes map[string]*seqLane[T]
}

// laneRacy looks a lane up without the stage lock.
func (st *seqStage[T]) laneRacy(key string) *seqLane[T] {
	return st.lanes[key] // want "access to guarded field lanes without holding st.mu"
}

// appendUnderWrongLock holds the stage lock, which does not guard a
// lane's job list.
func (st *seqStage[T]) appendUnderWrongLock(l *seqLane[T], j *T) {
	st.mu.Lock()
	l.jobs = append(l.jobs, j) // want "access to guarded field jobs without holding l.mu" "access to guarded field jobs without holding l.mu"
	st.mu.Unlock()
}
