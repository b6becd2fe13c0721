package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"paw/internal/bench"
	"paw/internal/obs"
)

// runDrift plays the drifting-workload scenario family against live
// in-process clusters with an attached drift controller and writes the
// machine-readable report (BENCH_drift.json): trigger fidelity per scenario,
// cost-regression recovery time, queries served during migration, and the
// offline-rebuild baseline.
func runDrift(cfg bench.Config, path string) error {
	rep, err := bench.DriftBench(cfg, bench.DriftOptions{})
	if err != nil {
		return err
	}
	rep.Meta.BuildInfo = obs.BuildVersion()
	rep.Meta.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Meta.Host = bench.CurrentHost()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "drift benchmark (%d workers, window %d, check every %d) -> %s\n",
		rep.Workers, rep.Window, rep.CheckEvery, path)
	for _, sc := range rep.Scenarios {
		verdict := "in scope"
		if sc.Migrated {
			verdict = fmt.Sprintf("migrated at q%d (%d q in flight, %d ms, %d B moved, recovery %d q)",
				sc.MigratedAtQuery, sc.QueriesDuringMigration, sc.MigrationMillis, sc.MovedBytes, sc.RecoveryQueries)
		} else if sc.Triggered {
			verdict = "triggered, not migrated"
		}
		fmt.Fprintf(os.Stderr, "  %-22s %4d queries  %s\n", sc.Scenario, sc.Queries, verdict)
		fmt.Fprintf(os.Stderr, "    cost B/query: baseline %.0f, regressed %.0f, recovered %.0f; patched/offline %.2f\n",
			sc.CostBaseline, sc.CostRegressed, sc.CostRecovered, sc.RecoveryVsOffline)
	}
	return nil
}
