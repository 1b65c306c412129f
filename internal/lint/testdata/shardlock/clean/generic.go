// generic.go holds the generic lane-stage shape done right: the lane
// table under the stage lock, a lane's jobs under the lane lock, never
// nested. The analyzer must stay silent.
package clean

import "sync"

type seqLane[T any] struct {
	mu   sync.Mutex //kmlint:guarded
	jobs []*T
}

type seqStage[T any] struct {
	mu    sync.Mutex //kmlint:guarded
	lanes map[string]*seqLane[T]
}

func (st *seqStage[T]) submit(key string, j *T) {
	st.mu.Lock()
	l := st.lanes[key]
	if l == nil {
		l = &seqLane[T]{}
		st.lanes[key] = l
	}
	st.mu.Unlock()

	l.mu.Lock()
	l.jobs = append(l.jobs, j)
	l.mu.Unlock()
}
