package bench

import (
	"context"
	"fmt"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/descriptor"
	"paw/internal/dist"
	"paw/internal/drift"
	"paw/internal/layout"
	"paw/internal/placement"
	"paw/internal/sim"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

// DriftOptions tunes the drift benchmark; the zero value means "use the
// defaults".
type DriftOptions struct {
	// Workers is the worker-process count of the in-process cluster
	// (default 2).
	Workers int
	// Window / CheckEvery are the monitor's sliding window and check cadence
	// (defaults 48 / 16 — small enough that every scenario stream holds
	// several full windows).
	Window     int
	CheckEvery int
}

func (o DriftOptions) normalized() DriftOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Window <= 0 {
		o.Window = 48
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 16
	}
	return o
}

// DriftPhaseStat is the observed per-phase serving cost of one scenario run.
type DriftPhaseStat struct {
	Name         string  `json:"name"`
	Queries      int     `json:"queries"`
	AvgScanBytes float64 `json:"avg_scan_bytes"`
	AvgRows      float64 `json:"avg_rows"`
}

// DriftScenarioResult is one scenario's end-to-end outcome: whether the
// monitor fired (and whether it should have), how long the cluster took to
// recover from the cost regression, what the migration shipped, and how the
// patched layout compares to a full offline rebuild over the same stream.
type DriftScenarioResult struct {
	Scenario    string `json:"scenario"`
	ExpectDrift bool   `json:"expect_drift"`
	Queries     int    `json:"queries"`

	// Triggered/Migrated report the monitor's decision for the whole stream;
	// a correct run has Triggered == ExpectDrift.
	Triggered bool `json:"triggered"`
	Migrated  bool `json:"migrated"`
	// TriggerAtQuery is the stream index at which the firing check was
	// launched; MigratedAtQuery the index of the first query served on the
	// new epoch (-1 when the scenario never migrated).
	TriggerAtQuery  int `json:"trigger_at_query"`
	MigratedAtQuery int `json:"migrated_at_query"`
	// RecoveryQueries is the cost-regression recovery time in queries: from
	// the onset of the stream's final phase to the cutover.
	RecoveryQueries int `json:"recovery_queries"`
	// QueriesDuringMigration counts queries the cluster answered while the
	// triggering rebuild+migration was in flight (service never stops).
	QueriesDuringMigration int   `json:"queries_during_migration"`
	MigrationMillis        int64 `json:"migration_ms"`

	Epoch        uint64 `json:"epoch"`
	MovedBytes   int64  `json:"moved_bytes"`
	RenamedParts int    `json:"renamed_parts"`
	AddedParts   int    `json:"added_parts"`
	RemovedParts int    `json:"removed_parts"`

	Phases []DriftPhaseStat `json:"phases"`

	// CostBaseline/CostRegressed/CostRecovered are observed per-query opened
	// bytes — the encoded size of the partitions the plans opened, scanned or
	// skipped, which is what the drift monitor gates on and a rebuild changes:
	// the first phase, the final phase before cutover, and the final phase
	// after cutover. (Until ISSUE 24 they were scan bytes, like the phases'
	// AvgScanBytes; searched chunks made those a measure of the kernels.)
	CostBaseline  float64 `json:"cost_baseline_bytes"`
	CostRegressed float64 `json:"cost_regressed_bytes"`
	CostRecovered float64 `json:"cost_recovered_bytes"`

	// PatchedCost/OfflineCost are the modeled per-query costs of the served
	// layout and of a full offline rebuild over the final-phase workload;
	// RecoveryVsOffline is their ratio (the incremental patch's quality bar —
	// the E2E test holds it under 1.10).
	PatchedCost       float64 `json:"patched_cost_bytes"`
	OfflineCost       float64 `json:"offline_cost_bytes"`
	RecoveryVsOffline float64 `json:"recovery_vs_offline"`

	// ClusterScanBytes is the observed total the cluster scanned for the
	// stream.
	ClusterScanBytes int64 `json:"cluster_scan_bytes"`
}

// DriftReport is the machine-readable drift snapshot written to
// BENCH_drift.json.
type DriftReport struct {
	Meta       Meta                  `json:"meta"`
	Workers    int                   `json:"workers"`
	Window     int                   `json:"window"`
	CheckEvery int                   `json:"check_every"`
	Scenarios  []DriftScenarioResult `json:"scenarios"`
}

// uncachedFleet is dist.StartFleet with the master's result cache off: a
// cached answer would hide the scan, or the outage, a bench measures.
func uncachedFleet(l *layout.Layout, names []string, store *blockstore.Store, rep placement.Replicated, slots int) (*dist.Fleet, error) {
	f, err := dist.StartFleet(l, names, store, rep, slots, nil)
	if err == nil {
		cfg := dist.DefaultConfig()
		cfg.ResultCacheSize = 0
		f.Master.Configure(cfg)
	}
	return f, err
}

// DriftBench plays every sim.DriftScenarios stream against a live in-process
// cluster with an attached drift controller: the out-of-scope scenarios must
// trigger, rebuild only the violated region and recover observed cost while
// serving queries throughout; the in-scope scenarios must not trigger.
func DriftBench(cfg Config, opt DriftOptions) (DriftReport, error) {
	opt = opt.normalized()
	rep := DriftReport{
		Meta:       Meta{Schema: DriftSchema},
		Workers:    opt.Workers,
		Window:     opt.Window,
		CheckEvery: opt.CheckEvery,
	}
	for _, sc := range sim.DriftScenarios(cfg.Seed) {
		res, err := runDriftScenario(sc, opt)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", sc.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep, nil
}

// triggerOutcome is one background TriggerNow's result.
type triggerOutcome struct {
	rep     drift.Report
	err     error
	elapsed time.Duration
}

func runDriftScenario(sc sim.DriftScenario, opt DriftOptions) (DriftScenarioResult, error) {
	res := DriftScenarioResult{
		Scenario:        sc.Name,
		ExpectDrift:     sc.ExpectDrift,
		TriggerAtQuery:  -1,
		MigratedAtQuery: -1,
	}
	data := sc.Data
	names := data.Names()

	// Offline construction from the historical workload, exactly like the
	// cluster would have been provisioned.
	sample := data.Sample(1200, sc.Seed+1)
	l, err := core.BuildMethod(core.MethodPAW, data, sample, data.Domain(), sc.Hist, core.Params{MinRows: 20, Delta: sc.Delta})
	if err != nil {
		return res, err
	}
	l.Route(data)
	storeCfg := blockstore.Config{GroupRows: 256}
	store := materialize(l, data, storeCfg)

	// The result cache is off: it would absorb replayed queries at zero
	// observed cost and blur the regression signal.
	f, err := uncachedFleet(l, names, store, placement.LeafRuns(l, opt.Workers, 1), opt.Workers)
	if err != nil {
		return res, err
	}
	defer f.Close()
	m := f.Master

	dcfg := drift.Config{
		Window:       opt.Window,
		CheckEvery:   opt.CheckEvery,
		CostFactor:   1.2,
		MinGain:      0.05,
		BuildMinRows: 10,
		BuildSample:  800,
		Seed:         sc.Seed,
	}
	ctl := drift.New(m, data, storeCfg.Builder(data), dcfg)
	ctl.Attach(false)

	stream := sc.Stream()
	offs := sc.PhaseOffsets()
	res.Queries = len(stream)
	scanBytes := make([]int64, len(stream))
	openedBytes := make([]int64, len(stream))
	rows := make([]int, len(stream))

	var (
		migCh       chan triggerOutcome
		inFlight    int // queries answered while the current check runs
		launchedAt  int
		checksMuted bool // stop checking once a migration landed
	)
	collect := func(out triggerOutcome) error {
		if out.err != nil {
			return fmt.Errorf("trigger at query %d: %w", launchedAt, out.err)
		}
		if out.rep.Triggered && res.TriggerAtQuery < 0 {
			res.TriggerAtQuery = launchedAt
		}
		res.Triggered = res.Triggered || out.rep.Triggered
		if out.rep.Migrated {
			res.Migrated = true
			res.Epoch = out.rep.Epoch
			res.MovedBytes = out.rep.MovedBytes
			res.RenamedParts = out.rep.Renamed
			res.AddedParts = out.rep.Added
			res.RemovedParts = out.rep.Removed
			res.QueriesDuringMigration = inFlight
			res.MigrationMillis = out.elapsed.Milliseconds()
			checksMuted = true
		}
		return nil
	}
	for i, b := range stream {
		resp, err := m.Query(sqlrew.BoxSQL(names, b))
		if err != nil {
			return res, fmt.Errorf("query %d: %w", i, err)
		}
		scanBytes[i], openedBytes[i], rows[i] = resp.BytesScanned, resp.BytesScanned+resp.BytesSkipped, resp.Rows
		if migCh != nil {
			inFlight++
			select {
			case out := <-migCh:
				migCh = nil
				if err := collect(out); err != nil {
					return res, err
				}
			default:
			}
		}
		if res.MigratedAtQuery < 0 && m.Epoch() > 0 {
			res.MigratedAtQuery = i
		}
		if migCh == nil && !checksMuted && (i+1)%opt.CheckEvery == 0 {
			migCh = make(chan triggerOutcome, 1)
			launchedAt = i
			inFlight = 0
			go func(ch chan triggerOutcome) {
				t0 := time.Now()
				trep, terr := ctl.TriggerNow(context.Background())
				ch <- triggerOutcome{rep: trep, err: terr, elapsed: time.Since(t0)}
			}(migCh)
		}
	}
	if migCh != nil {
		if err := collect(<-migCh); err != nil {
			return res, err
		}
	}
	if res.Migrated && res.MigratedAtQuery < 0 {
		res.MigratedAtQuery = len(stream)
	}

	// Per-phase observed costs.
	for p, ph := range sc.Phases {
		lo, hi := offs[p], offs[p+1]
		st := DriftPhaseStat{Name: ph.Name, Queries: hi - lo}
		for i := lo; i < hi; i++ {
			st.AvgScanBytes += float64(scanBytes[i])
			st.AvgRows += float64(rows[i])
			res.ClusterScanBytes += scanBytes[i]
		}
		if st.Queries > 0 {
			st.AvgScanBytes /= float64(st.Queries)
			st.AvgRows /= float64(st.Queries)
		}
		res.Phases = append(res.Phases, st)
	}
	// Regression and recovery on the final phase, split at the cutover.
	lastLo := offs[len(offs)-2]
	avgOver := func(lo, hi int) float64 {
		if hi <= lo {
			return 0
		}
		var sum int64
		for i := lo; i < hi; i++ {
			sum += openedBytes[i]
		}
		return float64(sum) / float64(hi-lo)
	}
	res.CostBaseline = avgOver(offs[0], offs[1])
	cut := len(stream)
	if res.MigratedAtQuery >= 0 {
		cut = res.MigratedAtQuery
	}
	if cut < lastLo {
		cut = lastLo
	}
	res.CostRegressed = avgOver(lastLo, cut)
	res.CostRecovered = avgOver(cut, len(stream))
	if res.Migrated && cut >= len(stream) {
		// The cutover landed only after the stream drained (slow machines,
		// GOMAXPROCS=1): replay the final phase once on the new epoch so the
		// recovered cost is always measured. The result cache is off, so the
		// replay scans for real.
		var sum int64
		for i := lastLo; i < len(stream); i++ {
			resp, err := m.Query(sqlrew.BoxSQL(names, stream[i]))
			if err != nil {
				return res, fmt.Errorf("recovery replay %d: %w", i, err)
			}
			sum += resp.BytesScanned + resp.BytesSkipped
		}
		res.CostRecovered = float64(sum) / float64(len(stream)-lastLo)
	}
	if res.MigratedAtQuery >= 0 {
		res.RecoveryQueries = res.MigratedAtQuery - lastLo
		if res.RecoveryQueries < 0 {
			res.RecoveryQueries = 0
		}
	}

	// Modeled recovery quality: the served layout vs a full offline rebuild
	// over the final-phase workload.
	var live workload.Workload
	for i := lastLo; i < len(stream); i++ {
		live = append(live, workload.Query{Box: stream[i], Seq: int64(i - lastLo)})
	}
	liveBoxes := live.Boxes()
	// Region descriptors against region descriptors: the partitions a
	// migration added carry data envelopes, the offline rebuild none. (The
	// stream is over; nothing routes on the served layout any more.)
	served := m.Router().Layout()
	descriptor.Uninstall(served)
	res.PatchedCost = served.AvgCost(liveBoxes, nil)
	offline := offlineDriftLayout(data, live, sc.Delta, dcfg)
	res.OfflineCost = offline.AvgCost(liveBoxes, nil)
	if res.OfflineCost > 0 {
		res.RecoveryVsOffline = res.PatchedCost / res.OfflineCost
	}
	return res, nil
}

// offlineDriftLayout builds the live workload's layout over the whole domain
// the way `pawcli build` does (sample build with the §IV-E refinement, then
// every row routed) — the quality bar the incremental patch is measured
// against.
func offlineDriftLayout(data *dataset.Dataset, live workload.Workload, delta float64, dcfg drift.Config) *layout.Layout {
	sample := data.Sample(dcfg.BuildSample, dcfg.Seed+3)
	l := core.Build(data, sample, data.Domain(), live, core.Params{
		MinRows: dcfg.BuildMinRows, Delta: delta, DataAwareRefine: true,
	})
	l.Route(data)
	return l
}
