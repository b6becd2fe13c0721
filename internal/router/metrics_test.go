package router

import (
	"testing"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
)

// TestMetricsObserveRouting pins the routing telemetry contract: one query
// counted per routed range, partitions touched and considered accumulate,
// and selected + skipped bytes cover the whole layout.
func TestMetricsObserveRouting(t *testing.T) {
	m, _, l := setup(t)
	reg := obs.New()
	m.SetMetrics(reg)

	q := geom.Box{Lo: geom.Point{0.2, 0.2}, Hi: geom.Point{0.4, 0.4}}
	plan, err := m.RouteRange(q)
	if err != nil {
		t.Fatal(err)
	}
	touched := len(plan.PartitionIDs())

	snap := reg.Snapshot()
	if got := snap.Counter(MetricQueries); got != 1 {
		t.Errorf("queries = %d, want 1", got)
	}
	if got := snap.Counter(MetricPartsTouched); got != int64(touched) {
		t.Errorf("partitions touched = %d, want %d", got, touched)
	}
	if got := snap.Counter(MetricPartsTotal); got != int64(l.NumPartitions()) {
		t.Errorf("partitions considered = %d, want %d", got, l.NumPartitions())
	}
	var wantSel int64
	for _, id := range plan.PartitionIDs() {
		wantSel += l.Parts[id].Bytes()
	}
	if got := snap.Counter(MetricBytesSelected); got != wantSel {
		t.Errorf("bytes selected = %d, want %d", got, wantSel)
	}
	if got := snap.Counter(MetricBytesSkipped); got != l.TotalBytes-wantSel {
		t.Errorf("bytes skipped = %d, want %d", got, l.TotalBytes-wantSel)
	}
	h := snap.Histograms[MetricLatency]
	if h.Count != 1 {
		t.Errorf("latency observations = %d, want 1", h.Count)
	}

	// SetMetrics(nil) detaches: no further observations.
	m.SetMetrics(nil)
	if _, err := m.RouteRange(q); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter(MetricQueries); got != 1 {
		t.Errorf("queries after detach = %d, want 1", got)
	}
}

// TestRoutePartitionsDisabledZeroAlloc asserts the acceptance bar: with
// telemetry detached the routing hot path allocates nothing per query when
// the destination slice has capacity.
func TestRoutePartitionsDisabledZeroAlloc(t *testing.T) {
	m, _, _ := setup(t)
	q := geom.Box{Lo: geom.Point{0.2, 0.2}, Hi: geom.Point{0.4, 0.4}}
	dst := make([]layout.ID, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = m.RoutePartitions(dst[:0], q)
	})
	if allocs != 0 {
		t.Fatalf("disabled routing hot path allocated %.1f/run, want 0", allocs)
	}
}

// TestRoutePartitionsEnabledZeroAlloc: the instruments themselves are
// allocation-free, so enabling telemetry must not add allocations either.
func TestRoutePartitionsEnabledZeroAlloc(t *testing.T) {
	m, _, _ := setup(t)
	m.SetMetrics(obs.New())
	q := geom.Box{Lo: geom.Point{0.2, 0.2}, Hi: geom.Point{0.4, 0.4}}
	dst := make([]layout.ID, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = m.RoutePartitions(dst[:0], q)
	})
	if allocs != 0 {
		t.Fatalf("enabled routing hot path allocated %.1f/run, want 0", allocs)
	}
}

// TestMetricsDoNotChangePlans: telemetry only observes — identical plans
// with metrics attached and detached.
func TestMetricsDoNotChangePlans(t *testing.T) {
	m, _, _ := setup(t)
	q := geom.Box{Lo: geom.Point{0.1, 0.3}, Hi: geom.Point{0.7, 0.8}}
	before, err := m.RouteRange(q)
	if err != nil {
		t.Fatal(err)
	}
	m.SetMetrics(obs.New())
	after, err := m.RouteRange(q)
	if err != nil {
		t.Fatal(err)
	}
	b, a := before.PartitionIDs(), after.PartitionIDs()
	if len(b) != len(a) {
		t.Fatalf("plan changed under telemetry: %v vs %v", b, a)
	}
	for i := range b {
		if b[i] != a[i] {
			t.Fatalf("plan changed under telemetry: %v vs %v", b, a)
		}
	}
}
