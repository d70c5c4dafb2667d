// Package telemetry is the simulator's unified observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms keyed by
// component/name), span tracing against the simulated clock, a periodic
// gauge sampler, and exporters (Prometheus text, JSONL, Chrome trace_event
// JSON — the last renders in chrome://tracing or Perfetto).
//
// Design constraints, in order:
//
//   - The simulation hot path (loads, stores, cache lookups) must stay
//     untouched. Components keep their plain per-package Stats structs and
//     register a Source — a callback enumerating current values — that the
//     registry calls only at sample/export time. No maps, no interface
//     dispatch, no atomics on the read/write path.
//   - Metrics the telemetry layer owns directly (Counter, Gauge, Histogram)
//     are safe for concurrent use, so an exporter goroutine can dump a
//     registry while the simulation runs. Sources, by contrast, read the
//     components' unsynchronised counters and must only be invoked from the
//     simulation thread; the sampler and end-of-run exporters do so.
//   - All time is simulated cycles (package simtime). A trace of a run is
//     a timeline of the *simulated* machine, not of the Go process.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"safemem/internal/simtime"
)

// Config parameterises a registry (and, via Session, every registry of a
// session).
type Config struct {
	// TraceEnabled turns on span recording. Off, Begin/End are no-ops.
	TraceEnabled bool
	// SampleInterval is the period of the gauge sampler in simulated
	// cycles; 0 disables sampling.
	SampleInterval simtime.Cycles
	// MaxTraceEvents caps the tracer's event buffer (0 = DefaultMaxTraceEvents).
	// Events beyond the cap are counted in DroppedEvents, never silently lost.
	MaxTraceEvents int
}

// DefaultMaxTraceEvents bounds trace memory for long runs (~1M events).
const DefaultMaxTraceEvents = 1 << 20

// LatencyBuckets is the default cycle-bucket layout for detection-latency
// histograms: decades from 1 µs to ~7 min of simulated time at 2.4 GHz.
var LatencyBuckets = []float64{
	2.4e3, 2.4e4, 2.4e5, 2.4e6, 2.4e7, 2.4e8, 2.4e9, 2.4e10, 2.4e11,
}

// OverheadBuckets is the default bucket layout for runtime-overhead
// histograms (fractional slowdown over the uninstrumented baseline): from
// well under the paper's sub-3% claims up to order-of-magnitude slowdowns.
var OverheadBuckets = []float64{
	0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10,
}

// Kind classifies a metric for exporters.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String names the kind in Prometheus terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonic counter owned by the registry. Safe for concurrent
// use.
type Counter struct {
	component, name string
	v               atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value owned by the registry. Safe for concurrent
// use.
type Gauge struct {
	component, name string
	bits            atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Safe for concurrent use.
// Bucket i counts observations ≤ bounds[i]; an implicit +Inf bucket catches
// the rest.
type Histogram struct {
	component, name string

	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// ObserveCycles records a cycle count.
func (h *Histogram) ObserveCycles(c simtime.Cycles) { h.Observe(float64(c)) }

// Snapshot returns the bucket bounds, per-bucket counts (last = +Inf), the
// sum and the total count.
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	counts = append([]uint64(nil), h.counts...)
	return bounds, counts, h.sum, h.count
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Source enumerates a component's current metric values. It is called only
// at sample/export time, from the simulation thread.
type Source func(emit func(name string, value float64))

// MetricValue is one exported scalar (counters, gauges and source values;
// histograms export separately).
type MetricValue struct {
	Component string
	Name      string
	Kind      Kind
	Value     float64
}

type sourceEntry struct {
	component string
	fn        Source
}

// Registry holds all metrics, the tracer and the sampler of one simulated
// machine (one run). Create with NewRegistry or Session.NewRegistry.
type Registry struct {
	run string
	cfg Config

	mu       sync.Mutex
	clock    *simtime.Clock
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
	order    []metricKey // registration order of owned metrics, for stable export
	sources  []sourceEntry
	// sourceCache holds the source values as of the last simulation-thread
	// read (sampler tick, SampleNow, Snapshot). LiveSnapshot serves these to
	// off-thread scrapers, which must never call the sources themselves —
	// sources read components' unsynchronised counters.
	sourceCache []MetricValue
	samples     []Sample
	tracer      *Tracer
	finished    bool
}

// Sample is one sampler snapshot row.
type Sample struct {
	Time      simtime.Cycles
	Component string
	Name      string
	Value     float64
}

// NewRegistry creates a registry. run labels the run in exports (empty is
// fine for single-run use). The tracer and sampler stay dormant until
// AttachClock wires the simulated clock in.
func NewRegistry(run string, cfg Config) *Registry {
	if cfg.MaxTraceEvents <= 0 {
		cfg.MaxTraceEvents = DefaultMaxTraceEvents
	}
	return &Registry{
		run:      run,
		cfg:      cfg,
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
		tracer:   &Tracer{max: cfg.MaxTraceEvents},
	}
}

// Run returns the registry's run label.
func (r *Registry) Run() string { return r.run }

// AttachClock binds the simulated clock: it enables the tracer (when
// configured) and installs the sampler's wake hook on the clock.
func (r *Registry) AttachClock(clock *simtime.Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = clock
	r.tracer.attach(clock, r.cfg.TraceEnabled)
	if iv := r.cfg.SampleInterval; iv > 0 {
		clock.SetWake(clock.Now()+iv, func(now simtime.Cycles) simtime.Cycles {
			r.sample(now)
			return now + iv
		})
	}
}

// Tracer returns the registry's span tracer (never nil; a no-op while
// tracing is disabled or no clock is attached).
func (r *Registry) Tracer() *Tracer { return r.tracer }

// metricKey identifies an owned metric. A struct key, not a joined
// string, so looking up an existing metric allocates nothing.
type metricKey struct{ component, name string }

// Counter returns the counter component/name, creating it on first use.
func (r *Registry) Counter(component, name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{component, name}
	if c, ok := r.counters[k]; ok {
		return c
	}
	c := &Counter{component: component, name: name}
	r.counters[k] = c
	r.order = append(r.order, k)
	return c
}

// Gauge returns the gauge component/name, creating it on first use.
func (r *Registry) Gauge(component, name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{component, name}
	if g, ok := r.gauges[k]; ok {
		return g
	}
	g := &Gauge{component: component, name: name}
	r.gauges[k] = g
	r.order = append(r.order, k)
	return g
}

// Histogram returns the histogram component/name with the given bucket
// upper bounds (sorted ascending; +Inf is implicit), creating it on first
// use. Bounds are ignored when the histogram already exists.
func (r *Registry) Histogram(component, name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{component, name}
	if h, ok := r.hists[k]; ok {
		return h
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{
		component: component,
		name:      name,
		bounds:    b,
		counts:    make([]uint64, len(b)+1),
	}
	r.hists[k] = h
	r.order = append(r.order, k)
	return h
}

// RegisterSource registers a component's value enumerator. Sources are read
// only at sample/export time, from the simulation thread — the hot path
// keeps its plain struct counters.
func (r *Registry) RegisterSource(component string, fn Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, sourceEntry{component: component, fn: fn})
}

// SourceMark returns a cursor into the source registration list. Pair with
// TruncateSources to unwind sources registered after the mark — the snapshot
// layer uses it to drop per-run sources (fault model, injector) when a pooled
// machine is restored, so repeated runs cannot accumulate duplicate emitters.
func (r *Registry) SourceMark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sources)
}

// TruncateSources forgets every source registered after the given mark.
// Marks taken later than the current length are ignored (the sources they
// cover are already gone).
func (r *Registry) TruncateSources(mark int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if mark < 0 {
		mark = 0
	}
	if mark < len(r.sources) {
		r.sources = r.sources[:mark]
	}
}

// owned returns the registry-owned scalar values (counters and gauges) in
// registration order. Their reads are atomic, so this is safe off-thread.
func (r *Registry) owned() []MetricValue {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, k := range r.order {
		if c, ok := r.counters[k]; ok {
			counters = append(counters, c)
		}
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, k := range r.order {
		if g, ok := r.gauges[k]; ok {
			gauges = append(gauges, g)
		}
	}
	r.mu.Unlock()

	var out []MetricValue
	for _, c := range counters {
		out = append(out, MetricValue{c.component, c.name, KindCounter, float64(c.Value())})
	}
	for _, g := range gauges {
		out = append(out, MetricValue{g.component, g.name, KindGauge, g.Value()})
	}
	return out
}

// readSources evaluates every registered source and refreshes the cache
// LiveSnapshot serves. Must be called from the simulation thread: sources
// read components' unsynchronised counters.
func (r *Registry) readSources() []MetricValue {
	r.mu.Lock()
	sources := append([]sourceEntry(nil), r.sources...)
	r.mu.Unlock()
	if len(sources) == 0 {
		return nil
	}
	var out []MetricValue
	for _, s := range sources {
		s.fn(func(name string, value float64) {
			out = append(out, MetricValue{s.component, name, KindGauge, value})
		})
	}
	r.mu.Lock()
	r.sourceCache = out
	r.mu.Unlock()
	return out
}

func sortValues(out []MetricValue) []MetricValue {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Snapshot returns the current value of every scalar metric — owned
// counters and gauges plus all source values — sorted by component then
// name. Must be called from the simulation thread (it reads sources).
func (r *Registry) Snapshot() []MetricValue {
	return sortValues(append(r.owned(), r.readSources()...))
}

// LiveSnapshot is the off-thread variant of Snapshot, safe to call from an
// HTTP scrape goroutine while the simulation runs: registry-owned counters
// and gauges are read through their atomics (always fresh), and source
// values come from the cache of the last simulation-thread read (sampler
// tick, SampleNow or Snapshot) instead of re-invoking the sources.
func (r *Registry) LiveSnapshot() []MetricValue {
	out := r.owned()
	r.mu.Lock()
	out = append(out, r.sourceCache...)
	r.mu.Unlock()
	return sortValues(out)
}

// Histograms returns the registry's histograms sorted by component/name.
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Histogram, 0, len(r.hists))
	for _, k := range r.order {
		if h, ok := r.hists[k]; ok {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].component != out[j].component {
			return out[i].component < out[j].component
		}
		return out[i].name < out[j].name
	})
	return out
}

// sample is the sampler tick: one Sample row per scalar metric.
func (r *Registry) sample(now simtime.Cycles) {
	vals := r.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range vals {
		r.samples = append(r.samples, Sample{Time: now, Component: v.Component, Name: v.Name, Value: v.Value})
	}
}

// SampleNow records an immediate sampler snapshot at the current simulated
// time, outside the periodic schedule. Components call it when they change
// the values their Source reports discontinuously — e.g. a stats reset — so
// exported time-series don't keep showing stale pre-reset values until the
// next periodic tick. No-op while sampling is disabled or no clock is
// attached. Must be called from the simulation thread (it reads sources).
func (r *Registry) SampleNow() {
	r.mu.Lock()
	clock := r.clock
	sampling := r.cfg.SampleInterval > 0
	r.mu.Unlock()
	if clock == nil || !sampling {
		return
	}
	r.sample(clock.Now())
}

// Samples returns all sampler rows recorded so far.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Sample(nil), r.samples...)
}

// Finish marks the end of the run: it closes any still-open spans (so
// exported traces have balanced begin/end pairs) and, when sampling is on,
// takes one final sample so the time-series covers the full run. Safe to
// call more than once.
func (r *Registry) Finish() {
	r.mu.Lock()
	clock := r.clock
	done := r.finished
	r.finished = true
	sampling := r.cfg.SampleInterval > 0
	r.mu.Unlock()
	if done {
		return
	}
	r.tracer.closeOpen()
	if clock != nil {
		clock.ClearWake()
		if sampling {
			r.sample(clock.Now())
		}
	}
}
