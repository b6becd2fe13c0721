package drift

import (
	"context"
	"math"
	"testing"

	"paw/internal/obs"
	"paw/internal/sqlrew"
)

// The drift telemetry must mirror the controller's counters and expose the
// last evaluation's evidence through gauges — and stay a no-op when no
// registry is attached.
// counters returns the controller's (checks, triggers, migrations, skips).
func (c *Controller) counters() (int64, int64, int64, int64) {
	return c.checks.Load(), c.triggers.Load(), c.migrations.Load(), c.skips.Load()
}

func TestControllerMetrics(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 32
	cfg.CheckEvery = 8
	tc := startDriftCluster(t, 6000, 2, cfg)
	names := tc.data.Names()
	reg := obs.New()
	tc.ctl.SetMetrics(reg)

	// Steady traffic: the check runs, nothing triggers, the gauges carry the
	// in-scope evidence.
	for i := 0; i < cfg.Window; i++ {
		tc.serve(t, sqlrew.BoxSQL(names, tc.hist[i%len(tc.hist)].Box))
	}
	if _, err := tc.ctl.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricDriftChecks); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDriftChecks, got)
	}
	if got := snap.Counter(MetricDriftTriggers); got != 0 {
		t.Fatalf("%s = %d, want 0 on steady traffic", MetricDriftTriggers, got)
	}
	if got := snap.Gauge(MetricDriftWindowAvgBytes); got <= 0 {
		t.Fatalf("%s = %d, want > 0 after a full window", MetricDriftWindowAvgBytes, got)
	}
	if got := snap.Gauge(MetricDriftDeltaEstimateMicro); got > int64(testDelta*1e6) {
		t.Fatalf("%s = %d exceeds the scope on replayed traffic", MetricDriftDeltaEstimateMicro, got)
	}
	if got := snap.Gauge(MetricDriftEpoch); got != 0 {
		t.Fatalf("%s = %d, want 0 before any migration", MetricDriftEpoch, got)
	}

	// Drifted traffic: the trigger fires, the migration ships payloads, the
	// epoch gauge follows the cutover.
	for _, b := range rightBoxes(cfg.Window, 99) {
		tc.serve(t, sqlrew.BoxSQL(names, b))
	}
	rep, err := tc.ctl.TriggerNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Migrated {
		t.Fatalf("drifted traffic must migrate: %+v", rep)
	}
	snap = reg.Snapshot()
	if got := snap.Counter(MetricDriftChecks); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricDriftChecks, got)
	}
	if got := snap.Counter(MetricDriftTriggers); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDriftTriggers, got)
	}
	if got := snap.Counter(MetricDriftMigrations); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDriftMigrations, got)
	}
	if got := snap.Counter(MetricDriftMovedBytes); got != rep.MovedBytes {
		t.Fatalf("%s = %d, want %d", MetricDriftMovedBytes, got, rep.MovedBytes)
	}
	if got := snap.Counter(MetricDriftSkips); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricDriftSkips, got)
	}
	if got := snap.Gauge(MetricDriftEpoch); got != 1 {
		t.Fatalf("%s = %d, want 1 after the migration", MetricDriftEpoch, got)
	}
	if got := snap.Gauge(MetricDriftOutOfScope); got <= 0 {
		t.Fatalf("%s = %d, want > 0 on the triggering window", MetricDriftOutOfScope, got)
	}
	if got := snap.Gauge(MetricDriftDeltaEstimateMicro); got <= int64(testDelta*1e6) {
		t.Fatalf("%s = %d, want > δ on drifted traffic", MetricDriftDeltaEstimateMicro, got)
	}

	// Counters() and the registry agree.
	checks, triggers, migrations, skips := tc.ctl.counters()
	if checks != 2 || triggers != 1 || migrations != 1 || skips != 0 {
		t.Fatalf("Counters() = %d/%d/%d/%d, want 2/1/1/0", checks, triggers, migrations, skips)
	}
}

// A controller without SetMetrics must run with no-op instruments.
func TestControllerMetricsDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 16
	cfg.CheckEvery = 8
	tc := startDriftCluster(t, 3000, 1, cfg)
	names := tc.data.Names()
	for i := 0; i < cfg.Window; i++ {
		tc.serve(t, sqlrew.BoxSQL(names, tc.hist[i%len(tc.hist)].Box))
	}
	if _, err := tc.ctl.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if checks, _, _, _ := tc.ctl.counters(); checks != 1 {
		t.Fatalf("checks = %d, want 1", checks)
	}
}

// δ′ is +Inf when the window shares nothing with the reference workload; the
// gauge must clamp instead of publishing the unspecified int64 conversion.
func TestPublishClampsDeltaEstimate(t *testing.T) {
	var c Controller
	reg := obs.New()
	c.SetMetrics(reg)
	ins := c.inst.Load()

	ins.publish(Report{Decision: Decision{DeltaEstimate: math.Inf(1)}})
	if got := reg.Snapshot().Gauge(MetricDriftDeltaEstimateMicro); got != math.MaxInt64 {
		t.Fatalf("Inf δ′ gauge = %d, want MaxInt64", got)
	}
	ins.publish(Report{Decision: Decision{DeltaEstimate: math.NaN()}})
	if got := reg.Snapshot().Gauge(MetricDriftDeltaEstimateMicro); got != 0 {
		t.Fatalf("NaN δ′ gauge = %d, want 0", got)
	}
	ins.publish(Report{Decision: Decision{DeltaEstimate: 0.25}})
	if got := reg.Snapshot().Gauge(MetricDriftDeltaEstimateMicro); got != 250000 {
		t.Fatalf("δ′ gauge = %d, want 250000", got)
	}
}
