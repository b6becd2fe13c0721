package drift

import (
	"math/rand"
	"testing"

	"paw/internal/dist"
	"paw/internal/geom"
	"paw/internal/workload"
)

func box2(lo0, lo1, hi0, hi1 float64) geom.Box {
	return geom.Box{Lo: geom.Point{lo0, lo1}, Hi: geom.Point{hi0, hi1}}
}

// leftHist is a reference workload confined to the left part of the unit
// square.
func leftHist(n int, seed int64) workload.Workload {
	return workload.Uniform(box2(0, 0, 0.45, 1), workload.Defaults(n, seed))
}

// rightBoxes generates small drifted query boxes inside the right part of
// the unit square.
func rightBoxes(n int, seed int64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Box, n)
	for i := range out {
		cx := 0.6 + rng.Float64()*0.3
		cy := 0.1 + rng.Float64()*0.8
		s := 0.02 + rng.Float64()*0.03
		out[i] = box2(cx-s, cy-s, cx+s, cy+s)
	}
	return out
}

// opening is the observation of a query over boxes whose plan opened — and,
// unless a test says otherwise, whose scan read — bytes of partitions.
func opening(bytes int64, boxes ...geom.Box) dist.QueryObservation {
	return dist.QueryObservation{Ranges: boxes, BytesOpened: bytes, BytesScanned: bytes}
}

func TestMonitorNoTriggerBeforeWindowFull(t *testing.T) {
	mo := NewMonitor(leftHist(10, 1), Config{Window: 16, Delta: 0.02})
	for i := 0; i < 15; i++ {
		mo.Observe(opening(1000, rightBoxes(1, int64(i))...), nil)
	}
	d := mo.Evaluate()
	if d.Trigger {
		t.Fatal("monitor must not trigger before the window is full")
	}
	if d.Reason != "window not yet full" {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestMonitorInScopeWorkloadDoesNotTrigger(t *testing.T) {
	hist := leftHist(20, 2)
	mo := NewMonitor(hist, Config{Window: 32, Delta: 0.05})
	// Live queries identical to reference queries: δ′ is 0.
	for i := 0; i < 64; i++ {
		q := hist[i%len(hist)]
		mo.Observe(opening(1000, q.Box), nil)
	}
	d := mo.Evaluate()
	if d.Trigger {
		t.Fatalf("in-scope workload triggered: %+v", d)
	}
	if d.DeltaEstimate != 0 {
		t.Fatalf("replayed reference queries must estimate δ′=0, got %g", d.DeltaEstimate)
	}
}

func TestMonitorDriftWithoutRegressionDoesNotTrigger(t *testing.T) {
	mo := NewMonitor(leftHist(20, 3), Config{Window: 32, Delta: 0.02, CostFactor: 1.5})
	// Fill with steady traffic to set the baseline, then drift at the SAME
	// observed cost: out of scope, but the layout still serves it fine.
	steady := leftHist(32, 4)
	for _, q := range steady {
		mo.Observe(opening(1000, q.Box), nil)
	}
	for _, b := range rightBoxes(32, 5) {
		mo.Observe(opening(1000, b), nil)
	}
	d := mo.Evaluate()
	if d.Trigger {
		t.Fatalf("drift without cost regression triggered: %+v", d)
	}
	if d.DeltaEstimate <= 0.02 {
		t.Fatalf("drifted window must estimate δ′ > δ, got %g", d.DeltaEstimate)
	}
	if d.Reason != "out of scope but cost has not regressed" {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestMonitorDriftWithRegressionTriggers(t *testing.T) {
	mo := NewMonitor(leftHist(20, 6), Config{Window: 32, Delta: 0.02, CostFactor: 1.5})
	steady := leftHist(32, 7)
	for _, q := range steady {
		mo.Observe(opening(1000, q.Box), nil)
	}
	drift := rightBoxes(32, 8)
	for _, b := range drift {
		mo.Observe(opening(10000, b), nil)
	}
	d := mo.Evaluate()
	if !d.Trigger {
		t.Fatalf("drifted+regressed window must trigger: %+v", d)
	}
	if d.OutOfScope == 0 {
		t.Fatal("trigger must report out-of-scope queries")
	}
	// The violated region must cover the drifted cluster and stay inside
	// the right part of the square (no steady query is out of scope).
	want := geom.MBR(drift...)
	if !d.Region.Equal(want) {
		t.Fatalf("region = %v, want MBR of drifted boxes %v", d.Region, want)
	}
	if d.Region.Lo[0] < 0.5 {
		t.Fatalf("violated region %v leaked into the steady half", d.Region)
	}
}

// TestMonitorGateReadsOpenedBytes: the regression gate is on what the layout
// controls. Once a scan searches its chunks, the extra partitions a stale
// layout opens cost a few probes each — a drifted window opens three times the
// baseline's partition bytes while reading under 1.3× its bytes, and must
// trigger; a drifted window that reads ten times more out of as many
// partition bytes as the baseline opened has not regressed — no rebuild would
// open fewer.
func TestMonitorGateReadsOpenedBytes(t *testing.T) {
	observe := func(mo *Monitor, b geom.Box, opened, scanned int64) {
		mo.Observe(dist.QueryObservation{Ranges: []geom.Box{b}, BytesOpened: opened, BytesScanned: scanned}, nil)
	}
	mo := NewMonitor(leftHist(20, 6), Config{Window: 32, Delta: 0.02, CostFactor: 1.3})
	for _, q := range leftHist(32, 7) {
		observe(mo, q.Box, 100_000, 1000)
	}
	for _, b := range rightBoxes(32, 8) {
		observe(mo, b, 300_000, 1250)
	}
	if d := mo.Evaluate(); !d.Trigger || d.WindowAvgBytes != 300_000 || d.BaselineAvgBytes != 100_000 {
		t.Fatalf("a window opening 3x the baseline's partition bytes must trigger on them: %+v", d)
	}

	mo = NewMonitor(leftHist(20, 6), Config{Window: 32, Delta: 0.02, CostFactor: 1.3})
	for _, q := range leftHist(32, 7) {
		observe(mo, q.Box, 100_000, 1000)
	}
	for _, b := range rightBoxes(32, 8) {
		observe(mo, b, 100_000, 10_000)
	}
	if d := mo.Evaluate(); d.Trigger || d.Reason != "out of scope but cost has not regressed" {
		t.Fatalf("a window that opens what the baseline opened has not regressed, whatever it reads: %+v", d)
	}
}

func TestMonitorCooldownMutes(t *testing.T) {
	mo := NewMonitor(leftHist(20, 9), Config{Window: 16, Delta: 0.01, CostFactor: 1.1})
	for _, q := range leftHist(16, 10) {
		mo.Observe(opening(100, q.Box), nil)
	}
	for _, b := range rightBoxes(16, 11) {
		mo.Observe(opening(10000, b), nil)
	}
	if d := mo.Evaluate(); !d.Trigger {
		t.Fatalf("precondition: should trigger, got %+v", d)
	}
	mo.MuteFor(10)
	if d := mo.Evaluate(); d.Trigger || d.Reason != "cooling down" {
		t.Fatalf("muted monitor evaluated %+v", d)
	}
	for _, b := range rightBoxes(10, 12) {
		mo.Observe(opening(10000, b), nil)
	}
	if d := mo.Evaluate(); !d.Trigger {
		t.Fatalf("cooldown must expire after n observations, got %+v", d)
	}
}

func TestMonitorReanchorResetsScope(t *testing.T) {
	mo := NewMonitor(leftHist(20, 13), Config{Window: 16, Delta: 0.02, CostFactor: 1.1})
	for _, q := range leftHist(16, 14) {
		mo.Observe(opening(100, q.Box), nil)
	}
	drift := rightBoxes(16, 15)
	for _, b := range drift {
		mo.Observe(opening(10000, b), nil)
	}
	if d := mo.Evaluate(); !d.Trigger {
		t.Fatalf("precondition: should trigger, got %+v", d)
	}
	// Re-anchor on what was observed: the same traffic is now in scope.
	var ref workload.Workload
	for i, b := range drift {
		ref = append(ref, workload.Query{Box: b, Seq: int64(i)})
	}
	mo.Reanchor(ref)
	for _, b := range drift {
		mo.Observe(opening(10000, b), nil)
	}
	d := mo.Evaluate()
	if d.Trigger {
		t.Fatalf("re-anchored monitor re-triggered on the same traffic: %+v", d)
	}
	if d.DeltaEstimate != 0 {
		t.Fatalf("δ′ = %g after re-anchor, want 0", d.DeltaEstimate)
	}
}

func TestMonitorWasteLedgerRanksOverscannedPartition(t *testing.T) {
	// Two partitions: a tiny query repeatedly hitting the big one
	// accumulates waste there and none on the other.
	data := unitData(t, 2000, 21)
	l := buildLeftLayout(t, data, leftHist(20, 22), 0.02)
	mo := NewMonitor(leftHist(20, 22), Config{Window: 32})

	q := box2(0.7, 0.4, 0.74, 0.44)
	ids := l.PartitionsFor(q)
	if len(ids) == 0 {
		t.Fatal("query must touch at least one partition")
	}
	for i := 0; i < 8; i++ {
		ob := opening(5000, q)
		ob.IDs = ids
		mo.Observe(ob, l)
	}
	top := mo.TopWaste(4)
	if len(top) == 0 {
		t.Fatal("waste ledger is empty")
	}
	if top[0].Bytes <= 0 {
		t.Fatalf("top waste = %+v, want positive", top[0])
	}
	seen := map[bool]bool{}
	for _, id := range ids {
		seen[top[0].ID == id] = true
	}
	if !seen[true] {
		t.Fatalf("top-waste partition %d is not among the touched ones %v", top[0].ID, ids)
	}
}
