package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// Run shape. It is the same on every commit; only -seconds scales it.
const (
	numSlices = 10 // measured slices per untraced run, each seconds/numSlices long
	// Set-ups timed per run; the last one is the rig that is measured. There
	// are at least minSetups, and more (up to maxSetups) while they have
	// taken less than setupBudget together: a set-up of a millisecond needs
	// many repeats before its median holds still.
	minSetups, maxSetups = 15, 100
	setupBudget          = time.Second
	warmupPart           = 0.1 // warm-up, as a share of -seconds, before the first slice

	// The traced invocation splits -seconds into an untraced reference
	// segment, the traced segment, and the layer probes.
	refPart    = 0.2
	tracedPart = 0.4
	probePart  = 0.06 // each of four probes

	maxGenShare = 0.05
)

type runConfig struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	outDir  string    // where the traced pass writes its span file
	log     io.Writer // the human-readable report
	// short is for go test: three set-ups instead of minSetups or more, and no
	// generator-share gate, which a fraction of a second cannot support.
	short bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome, in the shape of the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// segment is what happened between two marks.
type segment struct {
	seconds          float64
	delivered, bytes uint64
	msgRateKps       float64
	goodputMiBs      float64
	cpuUSPerMsg      float64
	rttUS            []float64 // this segment's round trips
	lateUS           []float64 // and open-loop generator lateness
}

func between(a, b marks) segment {
	s := segment{
		seconds:   float64(b.rx.at-a.rx.at) / 1e9,
		delivered: b.rx.delivered - a.rx.delivered,
		bytes:     b.rx.deliveredBytes - a.rx.deliveredBytes,
	}
	s.msgRateKps = float64(s.delivered) / s.seconds / 1e3
	s.goodputMiBs = float64(s.bytes) / s.seconds / (1 << 20)
	if s.delivered > 0 {
		s.cpuUSPerMsg = float64(b.cpuNS-a.cpuNS) / 1e3 / float64(s.delivered)
	}
	s.rttUS = usOf(b.tx.rtt[len(a.tx.rtt):])
	s.lateUS = usOf(b.tx.late[len(a.tx.late):])
	return s
}

// gates are the checks on what a run leaves behind.
type gates struct {
	poolBase   int64
	goroutines int
}

func openGates() gates {
	return gates{poolBase: bufpool.Account().Outstanding, goroutines: runtime.NumGoroutine()}
}

// check waits for teardown's stragglers (socket goroutines unwinding, queued
// buffers being failed back to the pool) and reports what never settled.
func (g gates) check() (poolLeft int64, goroutinesLeft int, problems []string) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		poolLeft = bufpool.Account().Outstanding - g.poolBase
		goroutinesLeft = runtime.NumGoroutine() - g.goroutines
		if (poolLeft == 0 && goroutinesLeft <= 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if poolLeft != 0 {
		problems = append(problems, fmt.Sprintf("bufpool: %+d buffers outstanding after teardown", poolLeft))
	}
	if goroutinesLeft > 0 {
		problems = append(problems, fmt.Sprintf("goroutines: %d more than before set-up", goroutinesLeft))
	}
	return poolLeft, goroutinesLeft, problems
}

// finish drains and closes the rig and folds everything that went wrong
// into res.
func finish(r *rig, g gates, res *result, log io.Writer) (final marks, poolLeft int64, goroutinesLeft int) {
	final = r.drain()
	r.close()
	res.Attempted += final.tx.attempted
	res.Failed += final.failures()
	poolLeft, goroutinesLeft, problems := g.check()
	for _, p := range problems {
		fmt.Fprintln(log, "  VIOLATION:", p)
		res.Failed++
	}
	return final, poolLeft, goroutinesLeft
}

// runUntraced is the --trace 0 invocation: timed set-ups, warm-up, numSlices
// measured slices, teardown and the correctness gates. Every end-to-end
// metric is the median over the slices.
func runUntraced(cfg runConfig) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	g := openGates()
	spec := cfg.spec

	var setups []float64
	var r *rig
	atLeast, atMost := minSetups, maxSetups
	if cfg.short {
		atLeast, atMost = 3, 3
	}
	began := time.Now()
	for i := 0; i < atLeast || (i < atMost && time.Since(began) < setupBudget); i++ {
		if r != nil {
			finish(r, g, res, cfg.log)
		}
		var took time.Duration
		var err error
		if r, took, err = setup(spec, cfg.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	time.Sleep(secs(cfg.seconds * warmupPart))
	ms := []marks{r.mark()}
	for i := 0; i < numSlices; i++ {
		time.Sleep(secs(cfg.seconds / numSlices))
		ms = append(ms, r.mark())
	}
	final, _, _ := finish(r, g, res, cfg.log)

	var p50, p99, p999, rate, goodput, cpu, late99 []float64
	rttN := 0
	for i := 0; i < numSlices; i++ {
		s := between(ms[i], ms[i+1])
		p50 = append(p50, percentile(s.rttUS, 0.50))
		p99 = append(p99, percentile(s.rttUS, 0.99))
		p999 = append(p999, percentile(s.rttUS, 0.999))
		late99 = append(late99, percentile(s.lateUS, 0.99))
		rate = append(rate, s.msgRateKps)
		goodput = append(goodput, s.goodputMiBs)
		cpu = append(cpu, s.cpuUSPerMsg)
		rttN += len(s.rttUS)
	}
	whole := between(ms[0], ms[numSlices])
	gen := genShare(whole)

	fmt.Fprintf(cfg.log, "%s (seed %d): %d slices of %.2f s, %d messages delivered, %d round trips sampled\n",
		spec.name, cfg.seed, numSlices, cfg.seconds/numSlices, whole.delivered, rttN)
	report := func(name string, xs []float64, gated bool) {
		s := summarize(xs)
		note := "  (diagnostic, not gated)"
		if gated {
			res.set(endToEndMetrics, name, s.Median)
			note = ""
		}
		fmt.Fprintf(cfg.log, "  %-18s %12.5g  [q1 %.5g, q3 %.5g, n=%d]%s\n", name, s.Median, s.Q1, s.Q3, s.N, note)
	}
	report("rtt_p50_us", p50, true)
	report("rtt_p99_us", p99, true)
	report("rtt_p999_us", p999, false)
	report("msg_rate_kps", rate, true)
	report("goodput_mib_s", goodput, true)
	report("cpu_us_per_msg", cpu, true)
	report("setup_s", setups, true)
	fmt.Fprintf(cfg.log, "  %-18s %12.5g  (the first set-up of the process, nothing warm; diagnostic)\n", "setup_first_s", setups[0])
	if len(whole.lateUS) > 0 {
		report("gen_late_p99_us", late99, false)
	}
	failedShare := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(cfg.log, "  %-18s %12.6f  (%d of %d; sent_ok %d, sent_err %d, delivered %d, echoes %d of %d)\n",
		"failed_share", failedShare, res.Failed, res.Attempted,
		final.tx.sentOK, final.tx.sentErr, final.rx.delivered, final.tx.echoGot, final.tx.echoAsked)
	fmt.Fprintf(cfg.log, "  %-18s %12.4f  (generator self time / wall; limit %.2f)\n", "gen_share", gen, maxGenShare)
	if gen > maxGenShare && !cfg.short {
		fmt.Fprintln(cfg.log, "  VIOLATION: the generator is more than", maxGenShare, "of the run")
		res.Failed++
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// genShare estimates the share of the wall clock the benchmark's own message
// handling took in a run: the cost of filling a slot and verifying a
// delivery, timed against a null sink (no middleware underneath), split
// into a per-message and a per-byte part and charged to what the run moved.
func genShare(run segment) float64 {
	if run.seconds == 0 {
		return 0
	}
	const small, big = 64, 64 << 10
	perMsg := nullSinkNS(small)
	perByte := (nullSinkNS(big) - perMsg) / (big - small)
	msgs := float64(run.delivered) + float64(len(run.rttUS)) // echoes are verified too
	return (msgs*perMsg + float64(run.bytes)*perByte) / (run.seconds * 1e9)
}

// nullSinkNS is the generator's own time per message of the given size. The
// few payloads it cycles through stay in cache, as a payload the receiver
// verifies does, having just been copied out of the wire buffer. It is the
// fastest of several short timings: whatever else the machine does in the
// meantime can only add to one.
func nullSinkNS(size int) float64 {
	pool := buildPool(rand.New(rand.NewSource(1)), size, false)[:4]
	const reps, iters = 8, 1024
	var m benchMsg
	best := int64(math.MaxInt64)
	for rep := 0; rep < reps; rep++ {
		began := nowNS()
		for i := uint64(1); i <= iters; i++ {
			p := &pool[i%uint64(len(pool))]
			m.seq, m.stamp, m.payload, m.crc, m.flags = i, nowNS(), p.data, p.crc, 0
			if checksum(m.payload) != m.crc {
				panic("benchmark: payload pool fails its own checksum")
			}
		}
		best = min(best, nowNS()-began)
	}
	return float64(best) / iters
}

// sampler polls the transport's own counters at 10 Hz, as an operator's
// dashboard would.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	depthMax, depthSum, samples int
}

func startSampler(r *rig) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				q := r.nodes[0].net.QueueStats()
				s.depthMax = max(s.depthMax, q.MaxDepth)
				s.depthSum += q.Queued
				s.samples++
			}
		}
	}()
	return s
}

func (s *sampler) halt() {
	close(s.stop)
	s.wg.Wait()
}

// rssPeakMiB reads the process's peak resident set from /proc.
func rssPeakMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
