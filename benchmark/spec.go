package main

import (
	"github.com/kompics/kompicsmessaging-go/internal/codec"
	"github.com/kompics/kompicsmessaging-go/internal/core"
)

// flowSpec is one stream of messages from the sending to the receiving
// component. A flow is closed loop (window > 0: that many messages are
// outstanding, and the next is sent when one completes) or open loop
// (rate > 0: messages are due on a fixed schedule whatever the system does).
type flowSpec struct {
	proto  core.Transport // TCP, UDT, or DATA through the data interceptor
	size   int            // payload bytes
	window int            // closed loop: messages outstanding
	rate   int            // open loop: messages due per second
	// echoEvery asks the receiver to echo every n-th message (0: never).
	// The echoes are the round-trip samples, and on a closed loop they are
	// what completes a message: the window is end to end. Without echoes a
	// message completes with its NotifyResp, as in the paper's transfers.
	echoEvery    int
	compressible bool
}

type workloadSpec struct {
	name string
	why  string
	// compressor builds the workload's wire compressor (a fresh one per node).
	compressor func() codec.Compressor
	flows      []flowSpec
}

// usesData reports whether the sending node needs the DATA interceptor.
func (w *workloadSpec) usesData() bool {
	for _, f := range w.flows {
		if f.proto == core.DATA {
			return true
		}
	}
	return false
}

func noop() codec.Compressor  { return codec.Noop{} }
func flate() codec.Compressor { return codec.NewFlate(-1) }

// workloads is the fixed suite. Every workload reports every end-to-end
// metric (the harness contract); README.md says which ones each workload
// exists for.
var workloads = []workloadSpec{
	{
		name:       "ctrl_rtt_tcp",
		why:        "one 64 B ping-pong over TCP, no compression: only fixed per-message cost (kompics, core hand-offs, transport wake-ups)",
		compressor: noop,
		flows:      []flowSpec{{proto: core.TCP, size: 64, window: 1, echoEvery: 1}},
	},
	{
		name:       "stream_tcp_1k",
		why:        "256 outstanding 1 KiB messages over TCP: same layers used for rate, so batching and allocations per message decide",
		compressor: noop,
		flows:      []flowSpec{{proto: core.TCP, size: 1 << 10, window: 256, echoEvery: 64}},
	},
	{
		name:       "bulk_tcp_flate_64k",
		why:        "64 outstanding compressible 64 KiB chunks over TCP with flate: codec does nearly all the work, transport gains should not show",
		compressor: flate,
		flows:      []flowSpec{{proto: core.TCP, size: 64 << 10, window: 64, echoEvery: 1, compressible: true}},
	},
	{
		name:       "bulk_udt_raw_64k",
		why:        "64 outstanding incompressible 64 KiB chunks over UDT, no compression: udt rate control and batching do the work, codec none",
		compressor: noop,
		flows:      []flowSpec{{proto: core.UDT, size: 64 << 10, window: 64, echoEvery: 1}},
	},
	{
		name:       "mix_ctrl_bulk_data",
		why:        "open-loop 1000/s 64 B TCP pings beside a 64 KiB DATA stream split 1:1 over TCP and UDT: bulk traffic delaying control (fig. 8)",
		compressor: noop,
		flows: []flowSpec{
			{proto: core.TCP, size: 64, rate: 1000, echoEvery: 1},
			{proto: core.DATA, size: 64 << 10, window: 64},
		},
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric and its unit. The lists below are the
// benchmark's whole vocabulary; bench_test.go holds them against
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"rtt_p50_us", "us"},
	{"rtt_p99_us", "us"},
	{"msg_rate_kps", "kmsg/s"},
	{"goodput_mib_s", "MiB/s"},
	{"cpu_us_per_msg", "us"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"kompics.dispatch_ns_per_event", "ns"},
	{"core.send_path_us", "us"},
	{"core.deliver_us", "us"},
	{"core.notify_us", "us"},
	{"codec.serialize_ns_per_msg", "ns"},
	{"codec.deserialize_ns_per_msg", "ns"},
	{"codec.compress_ns_per_msg", "ns"},
	{"codec.decompress_ns_per_msg", "ns"},
	{"codec.compress_ratio", "ratio"},
	{"codec.compress_kept_share", "ratio"},
	{"transport.wire_us", "us"},
	{"transport.endpoint_ns_per_msg", "ns"},
	{"transport.endpoint_rtt_ns", "ns"},
	{"transport.queue_depth_max", "count"},
	{"transport.queue_depth_mean", "count"},
	{"transport.drops", "count"},
	{"transport.inbound_frames", "count"},
	{"udt.conn_mib_s", "MiB/s"},
	{"udt.retransmit_share", "ratio"},
	{"udt.naks", "count"},
	{"udt.rate_pps", "1/s"},
	{"data.intercept_ns_per_msg", "ns"},
	{"data.udt_share", "ratio"},
	{"data.episodes", "count"},
	{"data.episode_drops", "count"},
	{"bufpool.gets_per_msg", "count"},
	{"bufpool.miss_share", "ratio"},
	{"bufpool.outstanding_end", "count"},
	{"proc.allocs_per_msg", "count"},
	{"proc.alloc_bytes_per_msg", "B"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.rss_peak_mib", "MiB"},
	{"proc.goroutines_end", "count"},
	{"trace.oneway_us", "us"},
	{"trace.remainder_us", "us"},
	{"trace.budget_gap_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.samples", "count"},
}
