package main

import (
	"fmt"
	"os"

	"paw/internal/bench"
)

// runDrift plays the drifting-workload scenario family against live
// in-process clusters with an attached drift controller and writes the
// machine-readable report (BENCH_drift.json): trigger fidelity per scenario,
// cost-regression recovery time, queries served during migration, and the
// offline-rebuild baseline.
func runDrift(cfg bench.Config, path string) error {
	rep, err := bench.DriftBench(cfg)
	if err != nil {
		return err
	}
	if err := writeReport(path, &rep, &rep.Meta); err != nil {
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
		fmt.Fprintf(os.Stderr, "    cost B/query: baseline %.0f, regressed %.0f, recovered %.0f",
			sc.CostBaseline, sc.CostRegressed, sc.CostRecovered)
		if sc.Migrated {
			fmt.Fprintf(os.Stderr, "; patched/offline %.2f", sc.RecoveryVsOffline)
		}
		fmt.Fprintln(os.Stderr)
	}
	return nil
}
