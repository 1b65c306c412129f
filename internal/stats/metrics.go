// Runtime metrics: the live counterpart of this package's offline sample
// math. A Registry holds lock-cheap named counters, gauges, and
// log-bucketed histograms, and exports one JSON snapshot of everything —
// via expvar, an http.Handler, or a plain writer. The transport layer's
// registry totals (queue depths, inbound frames), bufpool's accounting
// and the status-event stream all land here, which is what gives the soak
// harness (cmd/kmsoak) a live view of a run instead of a post-mortem.
//
// Everything is goroutine-safe. The hot-path types (Counter, Gauge,
// Histogram) are single atomics once obtained; the registry lock is only
// taken on first registration and on snapshot.
package stats

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load reads the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named collection of metrics with get-or-create
// registration, so independently started subsystems (and component
// restarts) can share one registry without coordination: the first
// Counter("x") creates it, every later call returns the same counter.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	gaugeFns  map[string]func() int64
	hists     map[string]*Histogram
	published bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a gauge computed at snapshot time —
// the fit for values that already live elsewhere as cheap reads, like the
// outgoing registry's queue depth or bufpool's outstanding count. fn must be
// goroutine-safe; it is called outside the registry lock.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramExport is a histogram's JSON shape: the summary plus the
// standard percentile ladder, so a scrape needs no bucket math.
type HistogramExport struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
}

// export renders a snapshot's percentile ladder.
func export(s HistogramSnapshot) HistogramExport {
	return HistogramExport{
		Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max, Mean: s.Mean(),
		P50: s.Quantile(0.50), P90: s.Quantile(0.90),
		P99: s.Quantile(0.99), P999: s.Quantile(0.999),
	}
}

// Snapshot renders every metric into a flat name → value map: counters as
// uint64, gauges (stored and computed) as int64, histograms as
// HistogramExport. Gauge functions run outside the registry lock.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.RLock()
	out := make(map[string]interface{},
		len(r.counters)+len(r.gauges)+len(r.gaugeFns)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		fns[name] = fn
	}
	for name, h := range r.hists {
		out[name] = export(h.Snapshot())
	}
	r.mu.RUnlock()
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// WriteJSON writes the snapshot as one JSON object with sorted keys
// (deterministic output — encoding/json sorts map keys, pinned here by
// test so a golden diff of two scrapes stays meaningful).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText writes the snapshot as sorted "name value" lines — the
// human-facing form kmsoak prints at checkpoints.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var err error
		switch v := snap[name].(type) {
		case HistogramExport:
			_, err = fmt.Fprintf(w,
				"%s count=%d mean=%.1f min=%d p50=%d p90=%d p99=%d p999=%d max=%d\n",
				name, v.Count, v.Mean, v.Min, v.P50, v.P90, v.P99, v.P999, v.Max)
		default:
			_, err = fmt.Fprintf(w, "%s %v\n", name, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the JSON snapshot — mount it
// wherever the process already has an HTTP listener. The registry itself
// never opens a socket (it lives in the deterministic simulation cone;
// cmd/kmsoak owns the listener).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// PublishExpvar publishes the registry under the given expvar name, so
// the standard /debug/vars endpoint carries the full snapshot. Safe to
// call once per registry; a second call (component restart) is a no-op,
// and a name already taken in the process-global expvar table is left
// alone rather than panicking.
func (r *Registry) PublishExpvar(name string) {
	r.mu.Lock()
	already := r.published
	r.published = true
	r.mu.Unlock()
	if already || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return r.Snapshot() }))
}
