// Command kmsim runs netsim campaigns at scale and reports event-core
// throughput as one go-bench-format line on stdout:
//
//	kmsim -endpoints 100000 -hosts 1000
//
// Each run executes -phases consecutive campaign phases on one simulator
// instance and reports, per the whole run: wall-clock ns per event,
// events/s, peak RSS (VmHWM), RSS growth between the first and last phase
// (the pooled event/message paths should hold this near zero), the
// live-timer high-water mark, and the deterministic trace hash.
//
// With -verify the same seeded campaign is run twice and the tool exits
// non-zero unless both runs' trace hashes and phase results are
// identical — the determinism gate CI runs at small scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kmsim", flag.ContinueOnError)
	var (
		endpoints   = fs.Int("endpoints", 100000, "logical endpoints (vnodes)")
		hosts       = fs.Int("hosts", 1000, "simulated hosts the vnodes share")
		topology    = fs.String("topology", "gossip", "host graph: gossip|star|tree")
		degree      = fs.Int("degree", 8, "gossip out-degree")
		fanout      = fs.Int("fanout", 4, "tree fanout")
		msgSize     = fs.Int("msgsize", 256, "payload bytes per message")
		phase       = fs.Duration("phase", 10*time.Second, "virtual duration of one phase")
		phases      = fs.Int("phases", 2, "consecutive phases to run")
		seed        = fs.Int64("seed", 1, "campaign seed")
		interval    = fs.Duration("interval", 2*time.Second, "mean per-endpoint send interval")
		flashAt     = fs.Duration("flash-at", 2*time.Second, "flash crowd start offset")
		flashLen    = fs.Duration("flash-len", 2*time.Second, "flash crowd length (0 disables)")
		flashX      = fs.Float64("flash-factor", 10, "flash crowd rate multiplier")
		churn       = fs.Duration("churn", 100*time.Millisecond, "mean time between endpoint up/down flips (0 disables)")
		heartbeat   = fs.Duration("heartbeat", 5*time.Second, "per-endpoint heartbeat period")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-message retransmission timeout")
		detectors   = fs.Int("detectors", 8, "per-peer failure detectors per endpoint (0 disables)")
		detInterval = fs.Duration("detector-interval", 250*time.Millisecond, "failure-detector evaluation period")
		verify      = fs.Bool("verify", false, "run the campaign twice and require identical traces")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *phases < 1 {
		return fmt.Errorf("-phases must be at least 1, got %d", *phases)
	}
	switch *topology {
	case "gossip", "star", "tree":
	default:
		return fmt.Errorf("unknown -topology %q (have gossip, star, tree)", *topology)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := netsim.CampaignConfig{
		Endpoints: *endpoints,
		Hosts:     *hosts,
		Topology:  *topology,
		Degree:    *degree,
		Fanout:    *fanout,
		MsgSize:   *msgSize,
		Phase:     *phase,
		Seed:      *seed,
		Arrival: netsim.ArrivalConfig{
			MeanInterval: *interval,
			FlashAt:      *flashAt,
			FlashLen:     *flashLen,
			FlashFactor:  *flashX,
		},
		Churn:             netsim.ChurnConfig{MeanFlipInterval: *churn},
		HeartbeatInterval: *heartbeat,
		RetransTimeout:    *timeout,
		DetectorFanout:    *detectors,
		DetectorInterval:  *detInterval,
	}

	if *verify {
		return runVerify(cfg, *phases)
	}
	runCampaign(cfg, *phases)
	return nil
}

// runCampaign executes one campaign and prints the bench line.
func runCampaign(cfg netsim.CampaignConfig, phases int) {
	c := netsim.NewCampaign(cfg)
	eff := c.Config()

	var total netsim.CampaignResult
	var firstPhaseRSS int64
	start := time.Now()
	for p := 0; p < phases; p++ {
		r := c.RunPhase()
		total.Events += r.Events
		total.Sends += r.Sends
		total.Delivered += r.Delivered
		total.ForwardHops += r.ForwardHops
		total.LocalReflects += r.LocalReflects
		total.Timeouts += r.Timeouts
		total.HeartbeatTicks += r.HeartbeatTicks
		total.ChurnFlips += r.ChurnFlips
		total.DetectorTicks += r.DetectorTicks
		total.Suspicions += r.Suspicions
		total.DeliveredDown += r.DeliveredDown
		total.PendingAtEnd = r.PendingAtEnd
		total.LiveTimerHWM = r.LiveTimerHWM
		total.TraceHash = r.TraceHash
		if p == 0 {
			firstPhaseRSS = peakRSSBytes()
		}
		fmt.Fprintf(os.Stderr, "kmsim: phase %d: %d events, %d sends, %d delivered, pending=%d, rss=%dB\n",
			p+1, r.Events, r.Sends, r.Delivered, r.PendingAtEnd, peakRSSBytes())
		// Collect at the phase boundary so each phase starts from a settled
		// heap: RSS growth between phases then measures real footprint
		// growth (leaked pools, retained buffers) rather than where the
		// previous phase happened to sit in its GC cycle.
		runtime.GC()
	}
	wall := time.Since(start)

	rss := peakRSSBytes()
	growthPct := 0.0
	if firstPhaseRSS > 0 {
		growthPct = 100 * float64(rss-firstPhaseRSS) / float64(firstPhaseRSS)
	}
	evPerSec := float64(total.Events) / wall.Seconds()
	nsPerEvent := float64(wall.Nanoseconds()) / float64(total.Events)

	name := fmt.Sprintf("BenchmarkSimCampaign/topo=%s/endpoints=%d/hosts=%d",
		eff.Topology, eff.Endpoints, eff.Hosts)
	fmt.Printf("%s \t%d\t%.1f ns/op\t%.0f events/s\t%d peak-rss-B\t%.2f rss-growth-pct\t%d timer-hwm\n",
		name, total.Events, nsPerEvent, evPerSec, rss, growthPct, total.LiveTimerHWM)

	fmt.Fprintf(os.Stderr,
		"kmsim: %d events in %v wall (%.0f events/s)\n"+
			"kmsim: sends=%d delivered=%d forwards=%d reflects=%d timeouts=%d hb=%d detect=%d suspect=%d churn=%d deadletter=%d\n"+
			"kmsim: timer-hwm=%d pending-at-end=%d peak-rss=%dB rss-growth=%.2f%% trace-hash=%#016x\n",
		total.Events, wall.Round(time.Millisecond), evPerSec,
		total.Sends, total.Delivered, total.ForwardHops, total.LocalReflects,
		total.Timeouts, total.HeartbeatTicks, total.DetectorTicks, total.Suspicions,
		total.ChurnFlips, total.DeliveredDown,
		total.LiveTimerHWM, total.PendingAtEnd, rss, growthPct, total.TraceHash)
}

// runVerify runs the identical seeded campaign twice and compares the
// runs event for event (via the rolling trace hash and the phase results).
func runVerify(cfg netsim.CampaignConfig, phases int) error {
	var runs [2][]netsim.CampaignResult
	for i := range runs {
		camp := netsim.NewCampaign(cfg)
		for p := 0; p < phases; p++ {
			runs[i] = append(runs[i], camp.RunPhase())
		}
	}
	for p := 0; p < phases; p++ {
		if a, b := runs[0][p], runs[1][p]; a != b {
			return fmt.Errorf("VERIFY FAILED: phase %d differs\nfirst:  %+v\nsecond: %+v", p+1, a, b)
		}
	}
	last := runs[0][phases-1]
	fmt.Fprintf(os.Stderr, "kmsim: verify ok: %d phases identical on two runs, trace-hash=%#016x, %d events\n",
		phases, last.TraceHash, last.Events)
	return nil
}

// peakRSSBytes reads the process's high-water resident set size from
// /proc/self/status (VmHWM). On platforms without procfs it falls back to
// the Go runtime's view of memory obtained from the OS.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
