package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/core"
)

// runTraced is the --trace 1 invocation. On one rig, whose serializer and
// compressor carry the decorators, it measures an untraced reference
// segment (decorators forwarding only) with the process-wide counters
// around it, then the traced segment; then, with the rig gone, the layer
// probes. It reports every per-layer metric.
func runTraced(cfg runConfig) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	set := func(name string, v float64) { res.set(perLayerMetrics, name, v) }
	g := openGates()
	tr := newTracer()
	r, _, err := setup(cfg.spec, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	time.Sleep(secs(cfg.seconds * warmupPart))

	// Reference segment: what the process does per message when nobody looks.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	pool0 := bufpool.Account()
	frames0 := r.nodes[1].net.InboundTotals().Frames
	smp := startSampler(r)
	m0 := r.mark()
	time.Sleep(secs(cfg.seconds * refPart))
	m1 := r.mark()
	smp.halt()
	frames1 := r.nodes[1].net.InboundTotals().Frames
	pool1 := bufpool.Account()
	runtime.ReadMemStats(&mem1)
	ref := between(m0, m1)

	// The traced segment starts at the reference's closing mark, which has
	// just set every flow's sampling stride from its rate over the reference.
	tr.on.Store(true)
	time.Sleep(secs(cfg.seconds * tracedPart))
	m2 := r.mark()
	tr.on.Store(false)
	traced := between(m1, m2)

	drops := r.nodes[0].net.DropStats().Sum().Total() + r.nodes[1].net.DropStats().Sum().Total()
	final, poolLeft, goroutinesLeft := finish(r, g, res, cfg.log)

	msgs := float64(max(ref.delivered, 1))
	set("proc.allocs_per_msg", float64(mem1.Mallocs-mem0.Mallocs)/msgs)
	set("proc.alloc_bytes_per_msg", float64(mem1.TotalAlloc-mem0.TotalAlloc)/msgs)
	set("proc.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
	set("proc.rss_peak_mib", rssPeakMiB())
	set("proc.goroutines_end", float64(goroutinesLeft))
	gets, unpooled := poolGets(pool1)-poolGets(pool0), unpooledGets(pool1)-unpooledGets(pool0)
	set("bufpool.gets_per_msg", float64(gets)/msgs)
	set("bufpool.miss_share", float64(unpooled)/float64(max(gets, 1)))
	set("bufpool.outstanding_end", float64(poolLeft))
	set("transport.queue_depth_max", float64(smp.depthMax))
	set("transport.queue_depth_mean", float64(smp.depthSum)/float64(max(smp.samples, 1)))
	set("transport.drops", float64(drops))
	set("transport.inbound_frames", float64(frames1-frames0))
	var couldUDT uint64 // deliveries on the flows that may use UDT at all
	for i, fs := range cfg.spec.flows {
		if fs.proto != core.TCP {
			couldUDT += final.rx.deliveredOn[i]
		}
	}
	set("data.udt_share", float64(final.rx.deliveredUDT)/float64(max(couldUDT, 1)))
	set("data.episodes", float64(r.episodes.Load()))
	set("data.episode_drops", float64(r.episodeDrops.Load()))

	set("codec.serialize_ns_per_msg", tr.ser.nsPerCall())
	set("codec.deserialize_ns_per_msg", tr.deser.nsPerCall())
	set("codec.compress_ns_per_msg", tr.comp.nsPerCall())
	set("codec.decompress_ns_per_msg", tr.decomp.nsPerCall())
	ratio, kept := 1.0, 0.0
	if out := tr.comp.out.Load(); out > 0 {
		ratio = float64(tr.comp.in.Load()) / float64(out)
		kept = float64(tr.compKept.Load()) / float64(tr.comp.calls.Load())
	}
	set("codec.compress_ratio", ratio)
	set("codec.compress_kept_share", kept)

	spans := tr.assemble()
	b := budgetOf(spans)
	set("core.send_path_us", b.layerUS["core.send"])
	set("core.deliver_us", b.layerUS["core.deliver"])
	set("core.notify_us", b.notifyUS)
	set("transport.wire_us", b.layerUS["transport.wire"])
	set("trace.oneway_us", b.onewayUS)
	set("trace.remainder_us", b.layerUS["remainder"])
	set("trace.budget_gap_share", b.gapShare)
	set("trace.samples", float64(b.samples))
	overhead := 0.0
	if ref.msgRateKps > 0 {
		overhead = 1 - traced.msgRateKps/ref.msgRateKps
	}
	set("trace.overhead_share", overhead)

	fmt.Fprintf(cfg.log, "%s (seed %d) traced: reference %.2f s, traced %.2f s, %d of flow 0's messages sampled, %d records dropped\n",
		cfg.spec.name, cfg.seed, ref.seconds, traced.seconds, b.samples, tr.dropped.Load())
	fmt.Fprintf(cfg.log, "  one-way budget: self time per layer of the median messages (%.1f us one way):\n", b.onewayUS)
	for _, name := range budgetLayers {
		fmt.Fprintf(cfg.log, "    %-18s %10.2f us\n", name, b.layerUS[name])
	}
	fmt.Fprintf(cfg.log, "  the layers add up to within %.1f %% of the median one-way time\n", 100*b.gapShare)
	fmt.Fprintf(cfg.log, "  traced vs reference: msg_rate_kps %.2f vs %.2f, goodput_mib_s %.2f vs %.2f, rtt_p50_us %.1f vs %.1f\n",
		traced.msgRateKps, ref.msgRateKps, traced.goodputMiBs, ref.goodputMiBs,
		percentile(traced.rttUS, 0.5), percentile(ref.rttUS, 0.5))
	if b.samples == 0 {
		fmt.Fprintln(cfg.log, "  VIOLATION: the traced segment sampled no complete message")
		res.Failed++
	}
	path, err := writeTrace(cfg.outDir, cfg.spec.name, spans, tr.dropped.Load())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.log, "  spans written to", path)

	if err := runProbes(cfg.spec, secs(cfg.seconds*probePart), res, cfg.log); err != nil {
		return nil, err
	}
	for _, d := range perLayerMetrics {
		fmt.Fprintf(cfg.log, "  %-30s %14.3f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func poolGets(a bufpool.Accounting) uint64 {
	n := a.Buffers.Gets
	for _, c := range a.Classes {
		n += c.Gets
	}
	return n
}

// unpooledGets counts the requests above the top size class, which the
// pool serves with a fresh allocation. Misses inside a size class are not
// visible from outside the package; they show in proc.alloc_bytes_per_msg.
func unpooledGets(a bufpool.Accounting) uint64 {
	for _, c := range a.Classes {
		if c.Size == 0 {
			return c.Gets
		}
	}
	return 0
}
