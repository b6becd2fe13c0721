package router

import (
	"time"

	"paw/internal/layout"
	"paw/internal/obs"
)

// Routing metric names. The per-query latency histogram uses
// obs.LatencyBuckets (nanosecond bounds); the touched/total counter pair and
// the selected/skipped byte counters give the fraction of the layout each
// query actually reads — the quantity Table I of the paper reports.
const (
	MetricQueries       = "router_queries_total"
	MetricLatency       = "router_query_latency_ns"
	MetricPartsTouched  = "router_partitions_touched_total"
	MetricPartsTotal    = "router_partitions_considered_total"
	MetricBytesSelected = "router_bytes_selected_total"
	MetricBytesSkipped  = "router_bytes_skipped_total"
)

// metrics is the optional routing telemetry. enabled gates the clock reads
// and the per-query byte accounting so the disabled hot path stays exactly as
// cheap (and allocation-free) as an un-instrumented master.
type metrics struct {
	enabled       bool
	queries       *obs.Counter
	latency       *obs.Histogram
	partsTouched  *obs.Counter
	partsTotal    *obs.Counter
	bytesSelected *obs.Counter
	bytesSkipped  *obs.Counter
}

// SetMetrics attaches (or, with nil, detaches) routing telemetry. Metrics
// only observe routing decisions — plans are identical with telemetry on or
// off.
func (m *Master) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		m.m = metrics{}
		return
	}
	m.m = metrics{
		enabled:       true,
		queries:       reg.Counter(MetricQueries),
		latency:       reg.Histogram(MetricLatency, obs.LatencyBuckets()),
		partsTouched:  reg.Counter(MetricPartsTouched),
		partsTotal:    reg.Counter(MetricPartsTotal),
		bytesSelected: reg.Counter(MetricBytesSelected),
		bytesSkipped:  reg.Counter(MetricBytesSkipped),
	}
}

// observeRoute records one routed range: latency, partitions touched vs the
// layout total, and bytes selected vs skipped. touched is the slice of
// partition IDs this range appended.
func (m *Master) observeRoute(start time.Time, touched []layout.ID) {
	mm := &m.m
	mm.queries.Inc()
	mm.latency.Observe(float64(time.Since(start)))
	mm.partsTotal.Add(int64(m.layout.NumPartitions()))
	mm.partsTouched.Add(int64(len(touched)))
	var sel int64
	for _, id := range touched {
		sel += m.layout.Parts[id].Bytes()
	}
	mm.bytesSelected.Add(sel)
	if skip := m.layout.TotalBytes - sel; skip > 0 {
		mm.bytesSkipped.Add(skip)
	}
}
