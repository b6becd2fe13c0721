// Package drift closes the loop between the paper's variance-aware
// construction (§IV) and a serving cluster: a monitor on the master keeps a
// sliding window of live routed queries, estimates the minimal δ′ that would
// make the window similar to the historical workload the layout was built
// for (the §IV-E estimator, directed at live traffic), and — when the live
// workload has left the layout's variance scope AND the partition bytes its
// queries open have regressed past a configurable factor — rebuilds only the
// violated region of the partition tree and migrates the cluster onto the
// patched layout (layout.PatchSubtree → dist.ApplyMigration) without stopping
// service.
//
// The package splits into a Monitor (pure observation and decision state,
// deterministic given an observation sequence) and a Controller (the rebuild
// + migration pipeline around it). Evaluate returns every decision the
// monitor makes with its evidence, and the controller can be driven
// synchronously (TriggerNow) for deterministic tests or auto-triggered from
// the master's query observer.
package drift

import (
	"sync"

	"paw/internal/dist"
	"paw/internal/geom"
	"paw/internal/workload"
)

// Config bundles the monitor and controller knobs. The zero value is
// completed by withDefaults. The scope the monitor holds the window to, δ and
// QH, is no knob: it is the one the serving layout was built for.
type Config struct {
	// Window is the sliding-window size in observed queries.
	Window int
	// CheckEvery runs the drift decision every N observations.
	CheckEvery int
	// CostFactor is the regression gate: reorganization is considered only
	// when the window's average opened bytes — the encoded size of the
	// partitions a query's plan opens, the cost the layout models and a
	// rebuild can change — exceed CostFactor × the baseline average (the
	// first full window after the layout was installed). Out-of-scope traffic
	// that the layout still serves cheaply does not trigger. The bytes a scan
	// then reads are no gate: the kernels spare most of a stale layout's
	// extra partitions, at a hop and a few probes each.
	CostFactor float64
	// MinGain is the benefit gate: the patched layout must cut the window's
	// modeled scan cost by at least this fraction, or the migration is
	// skipped.
	MinGain float64

	// BuildMinRows is bmin (in sample rows) for the region rebuild.
	BuildMinRows int
	// BuildSample caps the construction sample for the region rebuild.
	BuildSample int
	// Parallelism is the rebuild's parbuild width (0 = GOMAXPROCS).
	Parallelism int
	// Seed drives the controller's deterministic sampling and the oracle
	// probes.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 32
	}
	if c.CostFactor <= 0 {
		c.CostFactor = 1.3
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.05
	}
	if c.BuildMinRows <= 0 {
		c.BuildMinRows = 8
	}
	if c.BuildSample <= 0 {
		c.BuildSample = 2000
	}
	return c
}

// obsEntry is one windowed query observation.
type obsEntry struct {
	boxes []geom.Box
	bytes int64
}

// Monitor is the observation half: a ring of recent routed queries plus the
// reference workload the serving layout was built for. It is pure decision
// state — it never touches the cluster — and is safe for concurrent
// Observe/Evaluate calls.
type Monitor struct {
	cfg Config
	// delta is the layout's variance threshold δ, in absolute domain units:
	// the window is out of scope when δ′ > delta. A layout built with δ = 0
	// has an empty variance scope, so any drift is out of it.
	delta float64

	mu   sync.Mutex
	ref  workload.Workload // reference QH the layout's scope is anchored to
	ring []obsEntry
	next int   // ring write cursor
	full bool  // ring has wrapped at least once
	seen int64 // total observations

	// baseline is the mean opened bytes of the first full window after the
	// reference was (re)anchored; 0 until known.
	baseline    float64
	cooldownEnd int64 // observation count before which triggers are muted
}

// NewMonitor builds a monitor anchored to the scope the serving layout was
// built for: the reference workload hist and the threshold delta.
func NewMonitor(hist workload.Workload, delta float64, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{
		cfg:   cfg,
		delta: delta,
		ref:   hist.Clone(),
		ring:  make([]obsEntry, cfg.Window),
	}
}

// Observe records one served query: its routed range boxes and the bytes of
// the partitions its plan opened. A result-cache hit is recorded like any
// other query (see windowAvgLocked).
func (mo *Monitor) Observe(ob dist.QueryObservation) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	mo.ring[mo.next] = obsEntry{boxes: ob.Ranges, bytes: ob.BytesOpened}
	mo.next = (mo.next + 1) % len(mo.ring)
	if mo.next == 0 {
		mo.full = true
	}
	mo.seen++
	if mo.full && mo.baseline == 0 {
		mo.baseline = mo.windowAvgLocked()
	}
}

// windowAvgLocked is the mean opened bytes over the current window (cached
// hits count — they are demand the layout would otherwise serve with real I/O
// at their recorded cost).
func (mo *Monitor) windowAvgLocked() float64 {
	n := mo.next
	if mo.full {
		n = len(mo.ring)
	}
	if n == 0 {
		return 0
	}
	var sum int64
	for i := 0; i < n; i++ {
		sum += mo.ring[i].bytes
	}
	return float64(sum) / float64(n)
}

// windowWorkloadLocked flattens the window's range boxes into a workload.
func (mo *Monitor) windowWorkloadLocked() workload.Workload {
	n := mo.next
	if mo.full {
		n = len(mo.ring)
	}
	var w workload.Workload
	for i := 0; i < n; i++ {
		for _, b := range mo.ring[i].boxes {
			w = append(w, workload.Query{Box: b, Seq: int64(len(w))})
		}
	}
	return w
}

// outOfScopeLocked returns the window query boxes whose distance to the
// nearest reference query exceeds the scope δ — the live
// queries the layout was provably not built for. Their MBR is the violated
// region the controller rebuilds.
func (mo *Monitor) outOfScopeLocked() []geom.Box {
	n := mo.next
	if mo.full {
		n = len(mo.ring)
	}
	var out []geom.Box
	for i := 0; i < n; i++ {
		for _, b := range mo.ring[i].boxes {
			q := workload.Query{Box: b}
			best := -1.0
			for _, r := range mo.ref {
				d := workload.Dist(r, q)
				if best < 0 || d < best {
					best = d
				}
			}
			if best > mo.delta {
				out = append(out, b)
			}
		}
	}
	return out
}

// Decision is one drift evaluation: whether to trigger, why or why not, and
// the evidence.
type Decision struct {
	// Trigger is true when the live window is out of the layout's variance
	// scope and observed cost has regressed: the controller should rebuild.
	Trigger bool
	// Reason is a one-line explanation of the decision.
	Reason string
	// DeltaEstimate is δ′: the directed minimal δ that would bring the
	// window into the reference's scope.
	DeltaEstimate float64
	// WindowAvgBytes and BaselineAvgBytes are the observed-cost evidence:
	// opened bytes per query.
	WindowAvgBytes   float64
	BaselineAvgBytes float64
	// Region is the MBR of the out-of-scope queries (zero Box when none).
	Region geom.Box
	// OutOfScope counts the window queries outside the scope.
	OutOfScope int
}

// Evaluate runs the drift decision over the current window. It is
// side-effect-free: triggering policy (cooldowns) is applied by the caller
// via MuteFor.
func (mo *Monitor) Evaluate() Decision {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	d := Decision{
		WindowAvgBytes:   mo.windowAvgLocked(),
		BaselineAvgBytes: mo.baseline,
	}
	if !mo.full {
		d.Reason = "window not yet full"
		return d
	}
	if mo.seen < mo.cooldownEnd {
		d.Reason = "cooling down"
		return d
	}
	live := mo.windowWorkloadLocked()
	d.DeltaEstimate = workload.DirectedDelta(mo.ref, live)
	if d.DeltaEstimate <= mo.delta {
		d.Reason = "window within variance scope"
		return d
	}
	oos := mo.outOfScopeLocked()
	d.OutOfScope = len(oos)
	if len(oos) == 0 {
		d.Reason = "no individual query out of scope"
		return d
	}
	d.Region = geom.MBR(oos...)
	if mo.baseline > 0 && d.WindowAvgBytes < mo.cfg.CostFactor*mo.baseline {
		d.Reason = "out of scope but cost has not regressed"
		return d
	}
	d.Trigger = true
	d.Reason = "out of scope and cost regressed"
	return d
}

// MuteFor suppresses triggers for the next n observations (cooldown after a
// migration or a rejected trigger).
func (mo *Monitor) MuteFor(n int) {
	mo.mu.Lock()
	mo.cooldownEnd = mo.seen + int64(n)
	mo.mu.Unlock()
}

// Reanchor replaces the reference workload (after a migration: the layout's
// scope is now centered on what was just observed) and resets the window
// and its baseline.
func (mo *Monitor) Reanchor(ref workload.Workload) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	mo.ref = ref.Clone()
	mo.baseline = 0
	mo.full = false
	mo.next = 0
}

// Window returns a snapshot of the current window as a workload (for the
// controller's rebuild and benefit gate).
func (mo *Monitor) Window() workload.Workload {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.windowWorkloadLocked()
}

// Seen returns the total number of observations.
func (mo *Monitor) Seen() int64 {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.seen
}
