package bench

import (
	"context"
	"fmt"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/descriptor"
	"paw/internal/dist"
	"paw/internal/drift"
	"paw/internal/layout"
	"paw/internal/placement"
	"paw/internal/sim"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

// The drift benchmark's cluster and monitor: 2 workers, and a window of 48
// statements checked every 16 — small enough that every scenario stream holds
// several full windows.
const driftWorkers, driftWindow, driftCheckEvery = 2, 48, 16

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

	// CostBaseline/CostRegressed/CostRecovered are per-query opened bytes —
	// the encoded size of the partitions the plans opened, scanned or skipped,
	// which is what the drift monitor gates on and a rebuild changes: observed
	// over the first phase; the final phase's under the boot layout, computed
	// from the layout and the store before the stream starts (so it does not
	// depend on when the cutover lands); and observed over the final phase
	// after cutover.
	CostBaseline  float64 `json:"cost_baseline_bytes"`
	CostRegressed float64 `json:"cost_regressed_bytes"`
	CostRecovered float64 `json:"cost_recovered_bytes"`

	// PatchedCost/OfflineCost are the modeled per-query costs of the served
	// layout and of a full offline rebuild over the final-phase workload;
	// RecoveryVsOffline is their ratio (the incremental patch's quality bar —
	// TestDriftBench holds it under 1.5). All three are left out of a
	// scenario that never migrated: it has no patch to measure.
	PatchedCost       float64 `json:"patched_cost_bytes,omitempty"`
	OfflineCost       float64 `json:"offline_cost_bytes,omitempty"`
	RecoveryVsOffline float64 `json:"recovery_vs_offline,omitempty"`

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
func DriftBench(cfg Config) (DriftReport, error) {
	rep := DriftReport{Meta: Meta{Schema: DriftSchema}, Workers: driftWorkers, Window: driftWindow, CheckEvery: driftCheckEvery}
	for _, sc := range sim.DriftScenarios(cfg.Seed) {
		res, err := runDriftScenario(sc)
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

func runDriftScenario(sc sim.DriftScenario) (DriftScenarioResult, error) {
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
	f, err := uncachedFleet(l, names, store, placement.LeafRuns(l, driftWorkers, 1), driftWorkers)
	if err != nil {
		return res, err
	}
	defer f.Close()
	m := f.Master

	ctl, err := drift.New(m, storeCfg, drift.Config{Window: driftWindow, CheckEvery: driftCheckEvery, CostFactor: 1.2})
	if err != nil {
		return res, err
	}
	ctl.Attach(false)

	stream := sc.Stream()
	offs := sc.PhaseOffsets()
	res.Queries = len(stream)
	scanBytes := make([]int64, len(stream))
	openedBytes := make([]int64, len(stream))
	rows := make([]int, len(stream))
	// What each statement opens under the boot layout: the encoded bytes of
	// the partitions it routes to.
	bootOpened := make([]int64, len(stream))
	for i, b := range stream {
		for _, id := range l.PartitionsFor(b) {
			sp, err := store.Partition(id)
			if err != nil {
				return res, err
			}
			bootOpened[i] += sp.Table.EncodedBytes()
		}
	}

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
		// A check that falls due waits for the one still running, so the
		// checks a scenario gets follow from the statement stream alone.
		if migCh != nil && (i+1)%driftCheckEvery == 0 {
			out := <-migCh
			migCh = nil
			if err := collect(out); err != nil {
				return res, err
			}
		}
		if migCh == nil && !checksMuted && (i+1)%driftCheckEvery == 0 {
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
	// Until the first trigger every statement is served by the boot layout,
	// and opens what bootOpened says.
	untriggered := len(stream)
	if res.TriggerAtQuery >= 0 {
		untriggered = res.TriggerAtQuery + 1
	}
	for i := range untriggered {
		if openedBytes[i] != bootOpened[i] {
			return res, fmt.Errorf("query %d opened %d bytes; the boot layout's partitions for it hold %d", i, openedBytes[i], bootOpened[i])
		}
	}
	// Regression under the boot layout, and recovery after the cutover, on
	// the final phase.
	lastLo := offs[len(offs)-2]
	avgOver := func(opened []int64, lo, hi int) float64 {
		if hi <= lo {
			return 0
		}
		var sum int64
		for i := lo; i < hi; i++ {
			sum += opened[i]
		}
		return float64(sum) / float64(hi-lo)
	}
	res.CostBaseline = avgOver(openedBytes, offs[0], offs[1])
	res.CostRegressed = avgOver(bootOpened, lastLo, len(stream))
	cut := len(stream)
	if res.MigratedAtQuery >= 0 {
		cut = max(res.MigratedAtQuery, lastLo)
	}
	res.CostRecovered = avgOver(openedBytes, cut, len(stream))
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
	if !res.Migrated {
		return res, nil
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
	// The offline reference: the live workload's layout over the whole
	// domain, rebuilt with the boot layout's recipe as a region is.
	offline, err := core.Rebuild(l, data, data.Domain(), live)
	if err != nil {
		return res, err
	}
	res.OfflineCost = offline.AvgCost(liveBoxes, nil)
	if res.OfflineCost > 0 {
		res.RecoveryVsOffline = res.PatchedCost / res.OfflineCost
	}
	return res, nil
}
