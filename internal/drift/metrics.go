package drift

import (
	"math"

	"paw/internal/obs"
)

// Metric names for the drift loop. Counters count the controller's checks,
// triggers, skips and migrations and the shipped payload volume; gauges
// expose the last evaluation's evidence (δ′, observed vs baseline cost,
// out-of-scope count) and the layout epoch the controller most recently
// installed, so a dashboard can watch the scope check without calling into
// the controller.
const (
	MetricDriftChecks     = "drift_checks_total"
	MetricDriftTriggers   = "drift_triggers_total"
	MetricDriftSkips      = "drift_skips_total"
	MetricDriftMigrations = "drift_migrations_total"
	MetricDriftMovedBytes = "drift_moved_bytes_total"

	// MetricDriftDeltaEstimateMicro is the last evaluation's δ′ in millionths
	// of a domain unit (gauges are integral; δ values are small fractions).
	MetricDriftDeltaEstimateMicro = "drift_delta_estimate_micro"
	MetricDriftWindowAvgBytes     = "drift_window_avg_bytes"
	MetricDriftBaselineAvgBytes   = "drift_baseline_avg_bytes"
	MetricDriftOutOfScope         = "drift_out_of_scope_queries"
	MetricDriftEpoch              = "drift_epoch"
)

// driftInstruments holds the controller's registered instruments. The zero
// value (all nil) is the disabled set — every obs instrument is a no-op on a
// nil receiver — so the controller publishes unconditionally.
type driftInstruments struct {
	checks     *obs.Counter
	triggers   *obs.Counter
	skips      *obs.Counter
	migrations *obs.Counter
	movedBytes *obs.Counter

	delta       *obs.Gauge
	windowAvg   *obs.Gauge
	baselineAvg *obs.Gauge
	outOfScope  *obs.Gauge
	epoch       *obs.Gauge
}

// SetMetrics registers the drift instruments on reg and routes the
// controller's telemetry there. Safe to call while the controller is
// attached; a nil registry disables publication (the default).
func (c *Controller) SetMetrics(reg *obs.Registry) {
	c.inst.Store(&driftInstruments{
		checks:     reg.Counter(MetricDriftChecks),
		triggers:   reg.Counter(MetricDriftTriggers),
		skips:      reg.Counter(MetricDriftSkips),
		migrations: reg.Counter(MetricDriftMigrations),
		movedBytes: reg.Counter(MetricDriftMovedBytes),

		delta:       reg.Gauge(MetricDriftDeltaEstimateMicro),
		windowAvg:   reg.Gauge(MetricDriftWindowAvgBytes),
		baselineAvg: reg.Gauge(MetricDriftBaselineAvgBytes),
		outOfScope:  reg.Gauge(MetricDriftOutOfScope),
		epoch:       reg.Gauge(MetricDriftEpoch),
	})
}

// publish pushes one evaluation's evidence to the gauges.
func (ins *driftInstruments) publish(rep Report) {
	// δ′ is +Inf when no reference query matches the window at all (the
	// estimator found no finite matching); clamp so the gauge stays sane —
	// the int64 conversion of an out-of-range float is unspecified.
	d := rep.Decision.DeltaEstimate * 1e6
	switch {
	case math.IsNaN(d) || d < 0:
		ins.delta.Set(0)
	case d >= math.MaxInt64: // float64(MaxInt64) rounds up to 2^63, so >= catches it
		ins.delta.Set(math.MaxInt64)
	default:
		ins.delta.Set(int64(d))
	}
	ins.windowAvg.Set(int64(rep.Decision.WindowAvgBytes))
	ins.baselineAvg.Set(int64(rep.Decision.BaselineAvgBytes))
	ins.outOfScope.Set(int64(rep.Decision.OutOfScope))
	ins.epoch.Set(int64(rep.Epoch))
}
