package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/codec"
)

// procStart anchors the one monotonic clock both in-process nodes share,
// which is what lets spans recorded on the sending and the receiving node be
// laid end to end.
var procStart = time.Now()

func nowNS() int64 { return int64(time.Since(procStart)) }

// tracedPerSec is how many messages per second and flow the traced pass
// aims to record spans for (counts and busy times cover every message).
const tracedPerSec = 1000

// strideFor turns a flow's measured message rate into its sampling stride:
// every n-th message, n a prime so that the samples do not all sit at the
// same place in a power-of-two window or echo stride.
func strideFor(msgsPerSec float64) uint64 {
	n := min(max(uint64(msgsPerSec/tracedPerSec), 1), 1<<20) // the upper clamp also catches a rate over a zero interval
	for ; ; n++ {
		prime := true
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			return n
		}
	}
}

// Span record kinds. The point kinds (trigger, handler) have start == end.
const (
	kTrigger     = iota // sending component calls Trigger
	kSerialize          // benchSerializer.Serialize
	kCompress           // Compressor.Compress / AppendCompress
	kDecompress         // Compressor.Decompress
	kDeserialize        // benchSerializer.Deserialize
	kHandler            // receiving component's handler entered
	kNotify             // trigger → NotifyResp back at the sending component
	numKinds
)

type spanRec struct {
	kind, flow uint8
	seq        uint64
	start, end int64
}

// opCount is one decorated call site's counters; in and out are the bytes a
// compressor call consumed and produced.
type opCount struct{ calls, busyNS, in, out atomic.Uint64 }

func (o *opCount) add(busy int64, in, out int) {
	o.calls.Add(1)
	o.busyNS.Add(uint64(busy))
	o.in.Add(uint64(in))
	o.out.Add(uint64(out))
}

func (o *opCount) nsPerCall() float64 {
	if c := o.calls.Load(); c > 0 {
		return float64(o.busyNS.Load()) / float64(c)
	}
	return 0
}

// tracer is the traced pass's recorder: a preallocated span buffer filled
// through an atomic cursor by whichever goroutine crosses a layer boundary,
// and per-site counters. While off, the decorators only forward.
type tracer struct {
	on      atomic.Bool
	recs    []spanRec
	n       atomic.Int64
	dropped atomic.Uint64

	ser, deser, comp, decomp opCount
	compKept                 atomic.Uint64
}

func newTracer() *tracer { return &tracer{recs: make([]spanRec, 1<<18)} }

func (t *tracer) record(kind, flow uint8, seq uint64, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.recs)) {
		t.dropped.Add(1)
		return
	}
	t.recs[i] = spanRec{kind: kind, flow: flow, seq: seq, start: start, end: end}
}

// point records a boundary crossing the benchmark's own components see.
// A nil tracer (untraced invocation) records nothing.
func (t *tracer) point(kind uint8, m *benchMsg, at int64) {
	if t != nil && m.flags&flagTraced != 0 {
		t.record(kind, m.flow, m.seq, at, at)
	}
}

// tracedSerializer decorates the benchmark's serializer.
type tracedSerializer struct {
	benchSerializer
	tr *tracer
}

func (s tracedSerializer) Serialize(w io.Writer, v interface{}) error {
	if !s.tr.on.Load() {
		return s.benchSerializer.Serialize(w, v)
	}
	t0 := nowNS()
	err := s.benchSerializer.Serialize(w, v)
	t1 := nowNS()
	if m, ok := v.(*benchMsg); ok {
		s.tr.ser.add(t1-t0, 0, 0)
		if m.flags&flagTraced != 0 {
			s.tr.record(kSerialize, m.flow, m.seq, t0, t1)
		}
	}
	return err
}

func (s tracedSerializer) Deserialize(r io.Reader) (interface{}, error) {
	if !s.tr.on.Load() {
		return s.benchSerializer.Deserialize(r)
	}
	t0 := nowNS()
	v, err := s.benchSerializer.Deserialize(r)
	t1 := nowNS()
	if m, ok := v.(*benchMsg); ok {
		s.tr.deser.add(t1-t0, 0, 0)
		if m.flags&flagTraced != 0 {
			s.tr.record(kDeserialize, m.flow, m.seq, t0, t1)
		}
	}
	return v, err
}

// tracedCompressor decorates the configured compressor. Wrapping hides
// codec.Noop's type from core's skip-compression check, so in a traced
// invocation core calls the (free) Noop.Compress and ships raw as before.
type tracedCompressor struct {
	inner codec.Compressor
	tr    *tracer
}

func (c *tracedCompressor) Name() string { return c.inner.Name() }

func (c *tracedCompressor) note(kind uint8, op *opCount, encoded []byte, t0, t1 int64, in, out int) {
	op.add(t1-t0, in, out)
	if flow, seq, ok := tracedInEncoded(encoded); ok {
		c.tr.record(kind, flow, seq, t0, t1)
	}
}

func (c *tracedCompressor) compressed(src []byte, t0, t1 int64, produced int) {
	c.note(kCompress, &c.tr.comp, src, t0, t1, len(src), produced)
	// core ships the compressed form only when it is smaller than the raw one.
	if produced < len(src) {
		c.tr.compKept.Add(1)
	}
}

func (c *tracedCompressor) Compress(src []byte) ([]byte, error) {
	if !c.tr.on.Load() {
		return c.inner.Compress(src)
	}
	t0 := nowNS()
	out, err := c.inner.Compress(src)
	c.compressed(src, t0, nowNS(), len(out))
	return out, err
}

func (c *tracedCompressor) Decompress(src []byte) ([]byte, error) {
	if !c.tr.on.Load() {
		return c.inner.Decompress(src)
	}
	t0 := nowNS()
	out, err := c.inner.Decompress(src)
	c.note(kDecompress, &c.tr.decomp, out, t0, nowNS(), len(src), len(out))
	return out, err
}

// tracedAppendCompressor keeps core on its append fast path when the
// decorated compressor offers it.
type tracedAppendCompressor struct {
	*tracedCompressor
	app codec.AppendCompressor
}

func (c tracedAppendCompressor) AppendCompress(dst, src []byte) ([]byte, error) {
	if !c.tr.on.Load() {
		return c.app.AppendCompress(dst, src)
	}
	t0 := nowNS()
	out, err := c.app.AppendCompress(dst, src)
	c.compressed(src, t0, nowNS(), len(out)-len(dst))
	return out, err
}

func traceCompressor(inner codec.Compressor, tr *tracer) codec.Compressor {
	tc := &tracedCompressor{inner: inner, tr: tr}
	if app, ok := inner.(codec.AppendCompressor); ok {
		return tracedAppendCompressor{tracedCompressor: tc, app: app}
	}
	return tc
}

// budgetLayers are the spans that tile a sampled message's one-way path, in
// path order; "remainder" is what no span covers (core's glue between
// Serialize and Compress, and between Decompress and Deserialize).
var budgetLayers = []string{
	"core.send", "codec.serialize", "codec.compress", "transport.wire",
	"codec.decompress", "codec.deserialize", "core.deliver", "remainder",
}

// budget is the per-layer split of the one-way path of flow 0's sampled
// messages, in µs. Medians of the layers do not add up to the median of the
// whole (in a window, a message that waited long to be sent waits less on
// the wire), so the split is that of the median messages: the tenth of the
// sampled messages around the median one-way time, averaged.
type budget struct {
	samples  int
	layerUS  map[string]float64
	onewayUS float64 // median one-way time of all sampled messages
	notifyUS float64 // median trigger → NotifyResp
	// gapShare is |Σ layers − median one-way| ÷ median one-way.
	gapShare float64
}

type msgKey struct {
	flow uint8
	seq  uint64
}

// assemble groups the recorded spans by message.
func (t *tracer) assemble() map[msgKey]*[numKinds]spanRec {
	n := min(t.n.Load(), int64(len(t.recs)))
	msgs := make(map[msgKey]*[numKinds]spanRec)
	for _, r := range t.recs[:n] {
		k := msgKey{r.flow, r.seq}
		m := msgs[k]
		if m == nil {
			m = new([numKinds]spanRec)
			for i := range m {
				m[i].start = -1
			}
			msgs[k] = m
		}
		m[r.kind] = r
	}
	return msgs
}

// spansOf lays one message's records end to end. ok is false while the
// message is incomplete (still in flight when tracing stopped).
func spansOf(m *[numKinds]spanRec) (spans map[string][2]int64, ok bool) {
	has := func(k int) bool { return m[k].start >= 0 }
	if !has(kTrigger) || !has(kSerialize) || !has(kDeserialize) || !has(kHandler) {
		return nil, false
	}
	encoded, decoding := m[kSerialize].end, m[kDeserialize].start
	spans = map[string][2]int64{
		"msg.oneway":        {m[kTrigger].start, m[kHandler].start},
		"core.send":         {m[kTrigger].start, m[kSerialize].start},
		"codec.serialize":   {m[kSerialize].start, m[kSerialize].end},
		"codec.deserialize": {m[kDeserialize].start, m[kDeserialize].end},
		"core.deliver":      {m[kDeserialize].end, m[kHandler].start},
	}
	if has(kCompress) {
		spans["codec.compress"] = [2]int64{m[kCompress].start, m[kCompress].end}
		encoded = m[kCompress].end
	}
	if has(kDecompress) {
		spans["codec.decompress"] = [2]int64{m[kDecompress].start, m[kDecompress].end}
		decoding = m[kDecompress].start
	}
	spans["transport.wire"] = [2]int64{encoded, decoding}
	return spans, true
}

func budgetOf(msgs map[msgKey]*[numKinds]spanRec) budget {
	type row struct {
		oneway float64
		layers []float64 // by budgetLayers index
	}
	var rows []row
	var notify []float64
	for k, m := range msgs {
		if k.flow != 0 {
			continue
		}
		if m[kNotify].start >= 0 {
			notify = append(notify, float64(m[kNotify].end-m[kNotify].start)/1e3)
		}
		spans, ok := spansOf(m)
		if !ok {
			continue
		}
		total := spans["msg.oneway"][1] - spans["msg.oneway"][0]
		r := row{oneway: float64(total) / 1e3, layers: make([]float64, len(budgetLayers))}
		rest := total
		for i, name := range budgetLayers[:len(budgetLayers)-1] {
			d := spans[name][1] - spans[name][0] // absent span: zero
			r.layers[i] = float64(d) / 1e3
			rest -= d
		}
		r.layers[len(budgetLayers)-1] = float64(rest) / 1e3
		rows = append(rows, r)
	}
	b := budget{samples: len(rows), layerUS: make(map[string]float64), notifyUS: median(notify)}
	if len(rows) == 0 {
		return b
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].oneway < rows[j].oneway })
	n := len(rows)
	b.onewayUS = (rows[(n-1)/2].oneway + rows[n/2].oneway) / 2
	band := rows[max(n*45/100-2, 0):min(n*55/100+3, n)]
	sum := 0.0
	for i, name := range budgetLayers {
		for _, r := range band {
			b.layerUS[name] += r.layers[i] / float64(len(band))
		}
		sum += b.layerUS[name]
	}
	b.gapShare = math.Abs(sum-b.onewayUS) / b.onewayUS
	return b
}

// maxTraceMsgs bounds the messages written to the trace file; the budget is
// computed over all of them.
const maxTraceMsgs = 2000

type traceSpan struct {
	Msg    string `json:"msg"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeTrace dumps the sampled spans, one root span per message with the
// layer spans as its children, to <dir>/trace_<workload>.json.
func writeTrace(dir, workload string, msgs map[msgKey]*[numKinds]spanRec, dropped uint64) (string, error) {
	keys := make([]msgKey, 0, len(msgs))
	for k := range msgs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].flow != keys[j].flow {
			return keys[i].flow < keys[j].flow
		}
		return keys[i].seq < keys[j].seq
	})
	var out []traceSpan
	written := 0
	for _, k := range keys {
		spans, ok := spansOf(msgs[k])
		if !ok {
			continue
		}
		if written++; written > maxTraceMsgs {
			break
		}
		id := fmt.Sprintf("flow%d#%d", k.flow, k.seq)
		root := spans["msg.oneway"]
		out = append(out, traceSpan{Msg: id, Name: "msg.oneway", Start: root[0], End: root[1]})
		for _, name := range budgetLayers {
			if s, ok := spans[name]; ok {
				out = append(out, traceSpan{Msg: id, Name: name, Parent: "msg.oneway", Start: s[0], End: s[1]})
			}
		}
	}
	doc := map[string]interface{}{
		"workload": workload,
		"clock":    "ns on one monotonic clock shared by both in-process nodes",
		"sampling": fmt.Sprintf("about %d messages per second and flow", tracedPerSec),
		"dropped":  dropped,
		"spans":    out,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
