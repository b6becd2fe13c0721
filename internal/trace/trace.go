// Package trace is the per-query distributed tracing substrate of the PAW
// stack (DESIGN.md §14): a zero-dependency, sampling span recorder that is
// allocation-free when disabled, with spans that cross the master↔worker
// wire so one trace covers a query end to end — admission, routing, scatter,
// per-worker RPCs (retries and failovers included) and the per-partition scan
// kernels on every touched worker.
//
// Design constraints, mirroring internal/obs:
//
//   - Allocation-free when disabled. A nil *Tracer samples nothing, a nil *T
//     records nothing, and the zero SpanRef drops every annotation — code
//     instrumented against a disabled tracer compiles down to nil checks
//     (asserted by BenchmarkDisabledTracer with testing.AllocsPerRun == 0).
//   - Cheap when enabled but unsampled. The non-sampled path is one atomic
//     add per query; only sampled queries pay for span assembly.
//   - Lock-cheap assembly. A trace is private to its query: spans append
//     under the trace's own mutex (contended only by that query's scatter
//     goroutines), and completed traces land in a fixed-capacity ring buffer
//     under the tracer's mutex — two short critical sections per query.
//   - Typed attributes. Span annotations are (Key, int64) pairs from a fixed
//     enum, so wire encoding is positional and rendering needs no per-span
//     string table.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one typed span attribute. Values are wire format (encoded
// as a single byte): append new keys at the end, never reorder.
type Key uint8

const (
	_ Key = iota // 0 is no key
	// KeyWorker is the worker index an RPC targeted.
	KeyWorker
	// KeyPartition is the partition ID of one scan span.
	KeyPartition
	// KeyPartitions counts the partitions a span covers.
	KeyPartitions
	// KeyEpoch is the layout epoch the span executed under.
	KeyEpoch
	// KeyNextView marks a query double-routed onto the incoming migration
	// view (1) rather than the installed epoch (DESIGN.md §13).
	KeyNextView
	// KeyRows counts matched rows.
	KeyRows
	// KeyRowsDecoded counts materialized rows.
	KeyRowsDecoded
	// KeyBytesRead / KeyBytesSkipped follow colstore.ScanStats byte
	// accounting: encoded payload decoded vs proven skippable.
	KeyBytesRead
	KeyBytesSkipped
	// KeyGroupsRead / KeyGroupsSkipped count row groups evaluated and pruned.
	KeyGroupsRead
	KeyGroupsSkipped
	// KeyEncRaw..KeyEncFOR count column chunks decoded per physical
	// encoding — the scan's encoding mix.
	KeyEncRaw
	KeyEncDict
	KeyEncRLE
	KeyEncFOR
	// KeyShared marks a worker batch answered by attaching to an identical
	// in-flight batch instead of running its kernel passes.
	KeyShared
	// KeyCacheHit marks a result served from the master's result cache.
	KeyCacheHit
	// KeyAttempt is the zero-based retry attempt of one RPC.
	KeyAttempt
	// KeyFailoverRound is the scatter failover round (> 0: replica retry).
	KeyFailoverRound
	// KeyRange is the index of one routed range within its plan.
	KeyRange
	// KeyRanges counts the routed ranges (sub-queries) of a plan.
	KeyRanges
	// KeyError marks a failed span (1).
	KeyError
	// KeyPartial marks a query answered from surviving partitions only.
	KeyPartial
)

// String names the key for rendering and JSON exposure.
func (k Key) String() string {
	switch k {
	case KeyWorker:
		return "worker"
	case KeyPartition:
		return "partition"
	case KeyPartitions:
		return "partitions"
	case KeyEpoch:
		return "epoch"
	case KeyNextView:
		return "next_view"
	case KeyRows:
		return "rows"
	case KeyRowsDecoded:
		return "rows_decoded"
	case KeyBytesRead:
		return "bytes_read"
	case KeyBytesSkipped:
		return "bytes_skipped"
	case KeyGroupsRead:
		return "groups_read"
	case KeyGroupsSkipped:
		return "groups_skipped"
	case KeyEncRaw:
		return "enc_raw"
	case KeyEncDict:
		return "enc_dict"
	case KeyEncRLE:
		return "enc_rle"
	case KeyEncFOR:
		return "enc_for"
	case KeyShared:
		return "shared"
	case KeyCacheHit:
		return "cache_hit"
	case KeyAttempt:
		return "attempt"
	case KeyFailoverRound:
		return "failover_round"
	case KeyRange:
		return "range"
	case KeyRanges:
		return "ranges"
	case KeyError:
		return "error"
	case KeyPartial:
		return "partial"
	default:
		return "unknown"
	}
}

// Attr is one typed span annotation.
type Attr struct {
	K Key
	V int64
}

// Span is one recorded operation. IDs are trace-local and dense (the root is
// 1); Parent 0 means "no parent" — on the wire it means "attach to the
// requesting span" (see T.Attach). Spans cross the master↔worker protocol
// verbatim, so the field set is the wire schema.
type Span struct {
	ID     uint32
	Parent uint32
	Name   string
	// Start is the span's start in Unix nanoseconds on the recording host's
	// clock (spans from different hosts share a trace but not a clock; only
	// durations are comparable across hosts).
	Start int64
	// Dur is the span's duration in nanoseconds (0 until ended).
	Dur int64
	Attrs []Attr
}

// T is one in-flight trace. The nil *T records nothing — every method is a
// no-op — so untraced queries thread a nil trace through the serving path at
// the cost of nil checks only.
type T struct {
	id uint64

	mu    sync.Mutex
	spans []Span
	next  uint32
}

// localBase seeds process-locally unique trace IDs: the wall clock at init
// (so IDs differ across restarts) plus an atomic counter (so they differ
// within one).
var (
	localBase = uint64(time.Now().UnixNano())
	localSeq  atomic.Uint64
)

// NewLocal starts a trace outside any Tracer: forced traces (EXPLAIN on a
// master with tracing disabled) and worker-side trace fragments. The trace
// is never retained anywhere; its spans travel in the response that wanted
// them.
func NewLocal() *T {
	return &T{id: localBase + localSeq.Add(1)}
}

// ID returns the trace ID (0 on nil).
func (t *T) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SpanRef addresses one started span of one trace. The zero SpanRef is a
// valid no-op (its trace is nil); as a parent it means "no parent".
type SpanRef struct {
	t     *T
	idx   int
	id    uint32
	start time.Time
}

// Start records the start of a named span under parent (the zero SpanRef
// roots the span) and returns its reference. No-op on nil.
func (t *T) Start(name string, parent SpanRef) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	now := time.Now()
	t.mu.Lock()
	t.next++
	id := t.next
	idx := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent.id, Name: name, Start: now.UnixNano()})
	t.mu.Unlock()
	return SpanRef{t: t, idx: idx, id: id, start: now}
}

// Int annotates the span with one typed attribute. No-op on the zero ref.
func (s SpanRef) Int(k Key, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	sp.Attrs = append(sp.Attrs, Attr{K: k, V: v})
	s.t.mu.Unlock()
}

// End closes the span, fixing its duration. No-op on the zero ref.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	d := int64(time.Since(s.start))
	s.t.mu.Lock()
	s.t.spans[s.idx].Dur = d
	s.t.mu.Unlock()
}

// Attach merges a remote span fragment (worker-local IDs starting at 1,
// Parent 0 meaning "attach to the requesting span") under parent: IDs are
// offset past the trace's own, parents are remapped, and clock fields pass
// through untouched (remote clocks are not ours to fix). No-op on nil.
func (t *T) Attach(parent SpanRef, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	offset := t.next
	maxID := uint32(0)
	for _, sp := range spans {
		if sp.ID > maxID {
			maxID = sp.ID
		}
		sp.ID += offset
		if sp.Parent == 0 {
			sp.Parent = parent.id
		} else {
			sp.Parent += offset
		}
		// The attrs slice is shared with the decoded response; spans are
		// read-only from here, so sharing is safe.
		t.spans = append(t.spans, sp)
	}
	t.next = offset + maxID
	t.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far (nil on nil).
func (t *T) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return out
}

// Finished is one completed trace as stored in the tracer's ring buffer and
// exposed over /traces.
type Finished struct {
	ID uint64 `json:"trace_id"`
	// Root is the root span's name.
	Root string `json:"root"`
	// Start/DurNs mirror the root span.
	Start int64 `json:"start_unix_ns"`
	DurNs int64 `json:"dur_ns"`
	Spans []Span `json:"spans"`
}

// Exemplar links one latency-histogram bucket to the last sampled trace that
// landed in it — the bridge from a p99 bucket to a concrete trace ID.
type Exemplar struct {
	// LeNs is the bucket's inclusive upper bound in nanoseconds (the last
	// bucket's bound is +Inf, rendered as 0 here with Overflow true).
	LeNs     float64 `json:"le_ns"`
	Overflow bool    `json:"overflow,omitempty"`
	Count    int64   `json:"count"`
	TraceID  uint64  `json:"trace_id"`
	DurNs    int64   `json:"dur_ns"`
}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery samples one query trace in every N (1: every query;
	// 0: only forced traces, e.g. EXPLAIN).
	SampleEvery int
	// Buckets are the exemplar histogram bounds in nanoseconds (default
	// obs.LatencyBuckets-compatible bounds; pass explicitly to match a
	// registry's latency histogram).
	Buckets []float64
}

// Tracer owns the sampling decision, the ring of recent traces and the
// latency exemplars. The nil *Tracer is fully disabled: Sample returns nil
// and Finish drops the trace.
type Tracer struct {
	every uint64
	n     atomic.Uint64
	seq   atomic.Uint64
	base  uint64

	mu        sync.Mutex
	ring      []Finished
	pos       int
	count     int
	bounds    []float64
	exemplars []Exemplar
}

// defaultLatencyBounds mirror obs.LatencyBuckets (1µs .. 10s) so exemplars
// line up with the query-latency histogram without an obs dependency cycle.
func defaultLatencyBounds() []float64 {
	return []float64{
		1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
		1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 1e10,
	}
}

// ringCapacity is the number of finished traces a tracer retains.
const ringCapacity = 64

// New builds a tracer. Zero config fields fall back to their defaults.
func New(cfg Config) *Tracer {
	bounds := cfg.Buckets
	if len(bounds) == 0 {
		bounds = defaultLatencyBounds()
	}
	tr := &Tracer{
		every:     uint64(cfg.SampleEvery),
		base:      localBase + uint64(localSeq.Add(1))<<32,
		ring:      make([]Finished, ringCapacity),
		bounds:    bounds,
		exemplars: make([]Exemplar, len(bounds)+1),
	}
	for i, b := range bounds {
		tr.exemplars[i].LeNs = b
	}
	tr.exemplars[len(bounds)].Overflow = true
	return tr
}

// Sample decides whether this query is traced: every SampleEvery-th query
// is, forced queries (EXPLAIN) always are. The untraced path costs one
// atomic add and allocates nothing; nil tracers sample nothing (forced
// traces on a disabled tracer are the caller's job, via NewLocal).
func (tr *Tracer) Sample(force bool) *T {
	if tr == nil {
		return nil
	}
	if !force {
		if tr.every == 0 {
			return nil
		}
		if tr.n.Add(1)%tr.every != 0 {
			return nil
		}
	}
	return &T{id: tr.base + tr.seq.Add(1)}
}

// Finish seals a trace: the root span's duration indexes the exemplar
// buckets, and the trace lands in the ring (evicting the oldest). Traces
// whose root span never ended are timed as the max ended span. Nil tracers
// and nil traces no-op.
func (tr *Tracer) Finish(t *T) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	if len(spans) == 0 {
		return
	}
	f := Finished{ID: t.id, Root: spans[0].Name, Start: spans[0].Start, DurNs: spans[0].Dur, Spans: spans}
	if f.DurNs == 0 {
		for _, sp := range spans {
			if sp.Dur > f.DurNs {
				f.DurNs = sp.Dur
			}
		}
	}
	tr.mu.Lock()
	tr.ring[tr.pos] = f
	tr.pos = (tr.pos + 1) % len(tr.ring)
	if tr.count < len(tr.ring) {
		tr.count++
	}
	bi := len(tr.bounds)
	for i, b := range tr.bounds {
		if float64(f.DurNs) <= b {
			bi = i
			break
		}
	}
	ex := &tr.exemplars[bi]
	ex.Count++
	ex.TraceID = f.ID
	ex.DurNs = f.DurNs
	tr.mu.Unlock()
}

// Traces returns the retained traces, newest first.
func (tr *Tracer) Traces() []Finished {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Finished, 0, tr.count)
	for i := 0; i < tr.count; i++ {
		out = append(out, tr.ring[(tr.pos-1-i+len(tr.ring)*2)%len(tr.ring)])
	}
	return out
}

// Get returns the retained trace with the given ID.
func (tr *Tracer) Get(id uint64) (Finished, bool) {
	if tr == nil {
		return Finished{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := 0; i < tr.count; i++ {
		f := tr.ring[(tr.pos-1-i+len(tr.ring)*2)%len(tr.ring)]
		if f.ID == id {
			return f, true
		}
	}
	return Finished{}, false
}

// Exemplars returns the latency exemplars (buckets with no samples have
// Count 0).
func (tr *Tracer) Exemplars() []Exemplar {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Exemplar(nil), tr.exemplars...)
}
