package tuner

import (
	"testing"

	"paw/internal/obs"
)

// TestSelectObservedTelemetry: the counters/gauges mirror the greedy loop's
// actual decisions, and the selection is identical with telemetry attached.
func TestSelectObservedTelemetry(t *testing.T) {
	l, data, w := setup(t)
	budget := data.TotalBytes() / 5
	plain := Select(l, data, w.Boxes(), budget)

	reg := obs.New()
	extras := SelectObserved(l, data, w.Boxes(), budget, reg)
	if len(extras) != len(plain) {
		t.Fatalf("telemetry changed selection: %d vs %d extras", len(extras), len(plain))
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricCandidates); got != int64(len(w)) {
		t.Errorf("candidates = %d, want %d", got, len(w))
	}
	if got := snap.Counter(MetricReplicas); got != int64(len(extras)) {
		t.Errorf("replicas = %d, want %d", got, len(extras))
	}
	if got := snap.Counter(MetricReplicaBytes); got != totalBytes(extras) {
		t.Errorf("replica bytes = %d, want %d", got, totalBytes(extras))
	}
	if got := snap.Gauge(MetricBudgetBytes); got != budget {
		t.Errorf("budget gauge = %d, want %d", got, budget)
	}
	if got := snap.Gauge(MetricBudgetRemaining); got != budget-totalBytes(extras) {
		t.Errorf("budget remaining = %d, want %d", got, budget-totalBytes(extras))
	}
	h := snap.Histograms[MetricGain]
	if h.Count != int64(len(extras)) {
		t.Errorf("gain observations = %d, want %d", h.Count, len(extras))
	}
}
