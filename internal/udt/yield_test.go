//go:build !race

// Scheduling latency under the race detector is too noisy for a
// millisecond bound, so this file is left out of -race builds.

package udt

import (
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingDiscard counts the bytes written to it and drops them.
type countingDiscard struct{ n atomic.Int64 }

func (w *countingDiscard) Write(b []byte) (int, error) {
	w.n.Add(int64(len(b)))
	return len(b), nil
}

// TestBulkLoopsYieldProcessor runs a bulk stream on one processor and
// measures how late a 200 µs timer wakes beside it. The control loop
// and the datagram read loop never block while the stream flows, so
// unless they yield after every full burst and batch, a woken goroutine
// waits for Go's ≈ 10 ms preemption.
func TestBulkLoopsYieldProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	client, server, cleanup := pair(t, Config{})

	stop := make(chan struct{})
	sink := &countingDiscard{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		chunk := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.Write(chunk); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		_, _ = io.Copy(sink, server)
	}()
	defer func() {
		close(stop)
		cleanup()
		wg.Wait()
	}()

	// Wait for the stream to reach bulk speed.
	deadline := time.Now().Add(10 * time.Second)
	for sink.n.Load() < 4<<20 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d bytes delivered in 10 s", sink.n.Load())
		}
		time.Sleep(time.Millisecond)
	}

	const (
		sleep  = 200 * time.Microsecond
		probes = 400
	)
	before := sink.n.Load()
	late := make([]time.Duration, probes)
	for i := range late {
		start := time.Now()
		time.Sleep(sleep)
		late[i] = time.Since(start) - sleep
	}
	moved := sink.n.Load() - before
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	p50, p99 := late[probes/2], late[probes*99/100]
	t.Logf("timer lateness p50 %v p99 %v; %d KiB streamed meanwhile", p50, p99, moved>>10)
	if moved < 1<<20 {
		t.Fatalf("only %d bytes streamed during the probe; the check would be vacuous", moved)
	}
	if limit := 3 * time.Millisecond; p99 > limit {
		t.Fatalf("a 200 µs timer woke %v late at p99 beside a bulk stream, limit %v", p99, limit)
	}
}
