// Package obs is the zero-dependency telemetry substrate of the PAW stack:
// atomic counters, gauges and fixed-bucket histograms behind a Registry, plus
// lightweight spans that observe monotonic durations into a histogram.
//
// Design constraints (see DESIGN.md §9):
//
//   - Allocation-free when disabled. Every instrument method is a no-op on a
//     nil receiver, and a nil *Registry hands out nil instruments, so a
//     component instrumented against a disabled registry compiles down to a
//     handful of nil checks on its hot paths — testing.AllocsPerRun == 0 on
//     the router hot path is asserted in internal/router.
//   - Deterministic-build-safe. Instruments only count and time; they never
//     feed back into construction or routing decisions, so sealed-layout
//     digests are byte-identical with telemetry on or off (asserted in
//     internal/sim).
//   - Zero dependencies. Standard library only; safe to import from every
//     layer, including layout.
//
// Exposure is layered on top: WritePrometheus/Snapshot for the /metrics
// handler (http.go), and snapshot-driven build reports (layout.BuildReport).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on nil.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil Gauge is a valid no-op
// instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (use negative d to decrement). No-op on nil.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v exceeds the current value (atomic
// compare-and-swap loop); used for high-water marks such as recursion depth.
// No-op on nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. Bounds
// are ascending upper bounds; observations beyond the last bound land in an
// implicit +Inf bucket. The nil Histogram is a valid no-op instrument.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
}

// atomicFloat is a float64 accumulated by compare-and-swap on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// newHistogram copies and sorts the bounds. At least one bound is required;
// callers passing none get a single +Inf bucket.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; small bucket sets make this a
	// couple of comparisons.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Bounds returns the bucket upper bounds (nil on nil).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket counts, one per bound plus the final
// +Inf bucket (nil on nil).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Span is an in-flight duration measurement: Start captures a monotonic
// timestamp, End observes the elapsed nanoseconds into the owning histogram.
// The zero Span (from a nil Histogram) is a no-op and never reads the clock.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start opens a span on the histogram. On a nil Histogram the returned span
// is a no-op that never touches the clock.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End closes the span, observing its monotonic elapsed time in nanoseconds.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(float64(time.Since(s.start)))
	}
}

// LatencyBuckets are the default nanosecond bounds for latency histograms:
// roughly exponential from 1 µs to 10 s.
func LatencyBuckets() []float64 {
	return []float64{
		1e3, 2.5e3, 5e3, // ns: 1–5 µs
		1e4, 2.5e4, 5e4, // 10–50 µs
		1e5, 2.5e5, 5e5, // 100–500 µs
		1e6, 2.5e6, 5e6, // 1–5 ms
		1e7, 2.5e7, 5e7, // 10–50 ms
		1e8, 2.5e8, 5e8, // 100–500 ms
		1e9, 2.5e9, 5e9, 1e10, // 1–10 s
	}
}

// instrument kinds, for name-collision detection.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
)

type entry struct {
	name string
	kind int
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry owns a named set of instruments. The nil *Registry is the
// disabled registry: every constructor returns a nil instrument, whose
// methods are no-ops, so instrumented code runs allocation-free.
//
// Instrument names follow the Prometheus convention (snake_case, _total
// suffix on counters) and may carry a literal label set, e.g.
// `dist_worker_calls_total{worker="2"}` — the exposition formats pass the
// label block through verbatim.
type Registry struct {
	mu      sync.Mutex
	entries []entry // insertion order, for deterministic exposition
	byName  map[string]int
}

// New returns an enabled, empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// lookup returns the entry index for name, creating it with mk when absent.
// Creating a name that exists with a different kind panics: that is an
// instrumentation bug, not a runtime condition.
func (r *Registry) lookup(name string, kind int, mk func() entry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		if r.entries[i].kind != kind {
			panic("obs: instrument " + name + " re-registered with a different kind")
		}
		return i
	}
	e := mk()
	e.name = name
	e.kind = kind
	r.entries = append(r.entries, e)
	r.byName[name] = len(r.entries) - 1
	return len(r.entries) - 1
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	i := r.lookup(name, kindCounter, func() entry { return entry{c: &Counter{}} })
	return r.entries[i].c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	i := r.lookup(name, kindGauge, func() entry { return entry{g: &Gauge{}} })
	return r.entries[i].g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls reuse the first bounds). Returns nil on a
// nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	i := r.lookup(name, kindHistogram, func() entry { return entry{h: newHistogram(bounds)} })
	return r.entries[i].h
}

// HistogramStat is a histogram's snapshot value. Counts has one entry per
// bound plus a final +Inf bucket.
type HistogramStat struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every instrument, JSON-encodable and
// safe to read after the registry keeps mutating.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Counter returns the snapshot value of a counter (0 when absent); tolerant
// of a zero-value Snapshot.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the snapshot value of a gauge (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot captures every instrument. On a nil registry it returns an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStat{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			snap.Counters[e.name] = e.c.Value()
		case kindGauge:
			snap.Gauges[e.name] = e.g.Value()
		case kindHistogram:
			snap.Histograms[e.name] = HistogramStat{
				Bounds: e.h.Bounds(),
				Counts: e.h.BucketCounts(),
				Count:  e.h.Count(),
				Sum:    e.h.Sum(),
			}
		}
	}
	return snap
}

// Label appends a {key="value"} block to an instrument name, merging into an
// existing label block when the name already carries one. Used for small
// fixed cardinalities (per-worker counters); the exposition formats pass the
// block through verbatim.
func Label(name, key, value string) string {
	if n := len(name); n > 0 && name[n-1] == '}' {
		return name[:n-1] + `,` + key + `="` + value + `"}`
	}
	return name + `{` + key + `="` + value + `"}`
}
