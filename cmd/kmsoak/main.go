// Command kmsoak is the soak + chaos harness: it composes the
// file-transfer, pingpong and relay workloads over a real loopback
// topology (TCP, UDP and UDT endpoints), runs a seeded fault schedule
// against it — rolling outages, write stalls, datagram blackholes,
// reconnect storms — and exits nonzero unless the liveness invariants
// hold at the end:
//
//   - zero leaked pooled buffers (bufpool accounting diff across the run)
//   - bounded queue depths (high-water ≤ the per-channel bound, and
//     fully drained once traffic stops)
//   - every injected outage recovered within the recovery budget, none
//     still down at the end
//   - no goroutine growth between quiesced checkpoints
//
// The schedule is deterministic per seed: -print-plan renders the full
// arm/remove timeline without running anything, and two runs with the
// same seed produce the identical plan (CI diffs them). Live metrics are
// exported via expvar and, with -metrics-addr, an HTTP endpoint serving
// the JSON snapshot at /metrics.
//
//	kmsoak -duration 30s -seed 7 -schedule rolling-outage
//	kmsoak -duration 10m -schedule mixed -metrics-addr 127.0.0.1:8125
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/faults"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "kmsoak:", err)
	}
	os.Exit(code)
}

// inducedLeak pins a pooled buffer for the -induce leak regression: the
// zero-leak invariant must catch it and fail the run.
var inducedLeak []byte

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("kmsoak", flag.ContinueOnError)
	nodes := fs.Int("nodes", 3, "loopback nodes in the topology (min 2)")
	duration := fs.Duration("duration", 60*time.Second, "soak run length")
	seed := fs.Int64("seed", 1, "seed for schedule jitter, fault rolls and backoff")
	scheduleName := fs.String("schedule", "rolling-outage", "fault campaign: "+scheduleNames)
	basePort := fs.Int("base-port", 17000, "first port; each node takes two (TCP/UDP and UDT)")
	budget := fs.Duration("recovery-budget", 10*time.Second, "max allowed down→up recovery latency")
	maxPending := fs.Int("max-pending", 4096, "per-channel pending-queue bound (MaxPendingPerPeer)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/vars here (empty = off)")
	induce := fs.String("induce", "", "deliberately break an invariant: leak | outage (CI regression)")
	printPlan := fs.Bool("print-plan", false, "print the planned schedule event log and exit")
	verbose := fs.Bool("v", false, "print the executed event log and full metrics at the end")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *nodes < 2 {
		return 2, fmt.Errorf("-nodes must be at least 2")
	}
	if *maxPending <= 0 {
		return 2, fmt.Errorf("-max-pending must be positive")
	}

	targets := targetsOf(*basePort, *nodes)
	sched, err := buildSchedule(*scheduleName, targets, *duration)
	if err != nil {
		return 2, err
	}
	inj := faults.New(*seed)
	defer inj.Close()
	runner := faults.NewRunner(sched, inj, clock.Real{}, *seed)

	if *printPlan {
		fmt.Printf("# schedule=%s seed=%d nodes=%d duration=%v horizon=%v\n",
			*scheduleName, *seed, *nodes, *duration, runner.Horizon())
		fmt.Print(faults.FormatEvents(runner.Plan()))
		return 0, nil
	}

	// Baseline for the zero-leak gate: before any node draws a buffer.
	poolBaseline := bufpool.Account()

	reg := stats.NewRegistry()
	reg.PublishExpvar("kmsoak")
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		srv := &http.Server{Addr: *metricsAddr, Handler: mux}
		var srvWG sync.WaitGroup
		srvWG.Add(1)
		go func() {
			defer srvWG.Done()
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "kmsoak: metrics listener:", err)
			}
		}()
		defer srvWG.Wait()
		defer srv.Close()
	}

	fmt.Printf("kmsoak: %d nodes on 127.0.0.1:%d+, schedule=%s seed=%d duration=%v\n",
		*nodes, *basePort, *scheduleName, *seed, *duration)
	c, err := boot(clusterConfig{
		nodes: *nodes, basePort: *basePort, seed: *seed,
		inj: inj, reg: reg, duration: *duration + 15*time.Second,
		maxPending: *maxPending,
	})
	if err != nil {
		return 2, err
	}
	defer c.shutdown()

	switch *induce {
	case "":
	case "leak":
		//kmlint:ignore bufleak deliberate: -induce leak pins this buffer so the zero-leak gate must fail the run
		inducedLeak = bufpool.Get(4096)
	case "outage":
		// A permanent outage outside the schedule: the watcher sees the
		// down, recovery never comes, and the run must fail.
		for _, dest := range targets[1].Dests {
			inj.Add(faults.Spec{Op: faults.OpWrite, Action: faults.Reset, Dest: dest})
			inj.Add(faults.Spec{Op: faults.OpDial, Action: faults.Refuse, Dest: dest})
		}
	default:
		return 2, fmt.Errorf("unknown -induce %q (leak or outage)", *induce)
	}

	// Let the workloads reach steady state, then take the quiesced
	// goroutine checkpoint the end of the run is compared against.
	time.Sleep(time.Second)
	c.quiesce()
	gBaseline := goroutineBaseline()

	monitor := newQueueMonitor(c, reg)
	monitor.start()
	runner.Start()
	fmt.Printf("kmsoak: schedule running, horizon %v\n", runner.Horizon().Round(time.Millisecond))

	started := time.Now()
	end := time.NewTimer(*duration)
	progress := time.NewTicker(10 * time.Second)
	defer progress.Stop()
wait:
	for {
		select {
		case <-end.C:
			break wait
		case <-progress.C:
			fmt.Printf("kmsoak: t+%v rings=%d transfers=%d queue-high-water=%d\n",
				time.Since(started).Round(time.Second),
				reg.Counter("relay_rings_total").Load(),
				reg.Counter("transfers_total").Load(),
				reg.Gauge("queue_high_water").Load())
		}
	}
	runner.Stop() // no-op when complete; clears stragglers otherwise

	// Wind down: stop self-restarting drivers, then wait until in-flight
	// windows have resolved and every queue has drained; the gates below
	// rule on whatever is left once the wait ends.
	c.stopTraffic()
	waitFor(3*time.Second, c.drained)
	monitor.halt()

	// The gates. Collect every violation, then report them all.
	var failures []error
	if err := monitor.check(*maxPending); err != nil {
		failures = append(failures, err)
	}
	expectOutages := *scheduleName == "rolling-outage" || *scheduleName == "storm" || *scheduleName == "mixed"
	if err := checkRecoveries(c, *budget, expectOutages); err != nil {
		failures = append(failures, err)
	}
	if err := checkGoroutines(gBaseline); err != nil {
		failures = append(failures, err)
	}

	summary(reg, runner, *verbose)
	dropReport(c, reg)

	// Shut everything down, then the zero-leak gate: after teardown every
	// pooled buffer must be home.
	c.shutdown()
	inj.Close()
	if err := checkBufpool(poolBaseline); err != nil {
		failures = append(failures, err)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "kmsoak: INVARIANT VIOLATED:", f)
		}
		return 1, fmt.Errorf("%d invariant(s) violated", len(failures))
	}
	fmt.Println("kmsoak: PASS — all invariants held")
	return 0, nil
}

// summary prints the run's vital signs: schedule completion, recovery
// distribution, workload volume, and (verbose) the executed event log
// plus the full metrics dump.
func summary(reg *stats.Registry, runner *faults.Runner, verbose bool) {
	events := runner.Events()
	fmt.Printf("kmsoak: schedule executed %d/%d events\n", len(events), len(runner.Plan()))
	rec := reg.Histogram("recovery_ns").Snapshot()
	if rec.Count > 0 {
		fmt.Printf("kmsoak: recoveries=%d p50=%v p99=%v p99.9=%v max=%v\n",
			rec.Count,
			time.Duration(rec.Quantile(0.50)).Round(time.Millisecond),
			time.Duration(rec.Quantile(0.99)).Round(time.Millisecond),
			time.Duration(rec.Quantile(0.999)).Round(time.Millisecond),
			time.Duration(rec.Max).Round(time.Millisecond))
	}
	for _, proto := range []wire.Transport{wire.TCP, wire.UDP, wire.UDT} {
		name := fmt.Sprintf("rtt_%s_ns", proto)
		if s := reg.Histogram(name).Snapshot(); s.Count > 0 {
			fmt.Printf("kmsoak: %s samples=%d p50=%v p99=%v\n", name, s.Count,
				time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(s.Quantile(0.99)).Round(time.Microsecond))
		}
	}
	fmt.Printf("kmsoak: transfers=%d (%d bytes) relay rings=%d/%d\n",
		reg.Counter("transfers_total").Load(),
		reg.Counter("transfer_bytes_total").Load(),
		reg.Counter("relay_rings_total").Load(),
		reg.Counter("relay_sent_total").Load())
	if verbose {
		fmt.Println("--- schedule events ---")
		fmt.Print(faults.FormatEvents(events))
		fmt.Println("--- metrics ---")
		_ = reg.WriteText(os.Stdout)
	}
}

// dropReport prints the pending-queue drop accounting for the gate report:
// totals by reason summed over the cluster, and the telemetry workload's
// send/receive balance with the effective drop rate — the numbers the
// value-of-update shedding run in EXPERIMENTS.md reads.
func dropReport(c *cluster, reg *stats.Registry) {
	var drops, telem transport.PolicyDrops
	for _, n := range c.nodes {
		t := n.net.DropStats()
		s := t.Sum()
		drops.Full += s.Full
		drops.Coalesced += s.Coalesced
		drops.Expired += s.Expired
		tc := t.PerClass[wire.ClassTelemetry]
		telem.Full += tc.Full
		telem.Coalesced += tc.Coalesced
		telem.Expired += tc.Expired
	}
	sent := reg.Counter("telemetry_sent_total").Load()
	recv := reg.Counter("telemetry_recv_total").Load()
	rate := 0.0
	if sent > 0 {
		rate = float64(telem.Total()) / float64(sent)
	}
	fmt.Printf("kmsoak: drops: full=%d coalesced=%d expired=%d\n",
		drops.Full, drops.Coalesced, drops.Expired)
	fmt.Printf("kmsoak: telemetry sent=%d recv=%d drop-rate=%.1f%%\n",
		sent, recv, rate*100)
}
