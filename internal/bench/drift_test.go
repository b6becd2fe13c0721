package bench

import "testing"

// The drift benchmark runs the full scenario family against live clusters;
// its labels are the acceptance contract: drifting scenarios trigger, migrate
// and recover, in-scope scenarios never fire.
func TestDriftBench(t *testing.T) {
	if testing.Short() {
		t.Skip("drift bench drives live clusters")
	}
	cfg := tinyConfig()
	rep, err := DriftBench(cfg, DriftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Schema != DriftSchema {
		t.Fatalf("schema = %q, want %q", rep.Meta.Schema, DriftSchema)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(rep.Scenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.Triggered != sc.ExpectDrift {
			t.Errorf("%s: triggered=%v, expect_drift=%v", sc.Scenario, sc.Triggered, sc.ExpectDrift)
		}
		if sc.CostBaseline <= 0 {
			t.Errorf("%s: no observed baseline cost", sc.Scenario)
		}
		if !sc.ExpectDrift {
			if sc.Migrated || sc.Epoch != 0 {
				t.Errorf("%s: in-scope scenario migrated: %+v", sc.Scenario, sc)
			}
			continue
		}
		if !sc.Migrated {
			t.Errorf("%s: drifting scenario did not migrate", sc.Scenario)
			continue
		}
		if sc.Epoch == 0 || sc.MovedBytes <= 0 || sc.AddedParts == 0 {
			t.Errorf("%s: migration shipped nothing: %+v", sc.Scenario, sc)
		}
		if sc.MigratedAtQuery < 0 || sc.MigratedAtQuery > sc.Queries {
			t.Errorf("%s: migrated_at_query = %d out of range", sc.Scenario, sc.MigratedAtQuery)
		}
		if sc.CostRecovered <= 0 || sc.CostRecovered >= sc.CostRegressed {
			t.Errorf("%s: cost did not recover: regressed %.0f, recovered %.0f",
				sc.Scenario, sc.CostRegressed, sc.CostRecovered)
		}
		if sc.OfflineCost <= 0 || sc.RecoveryVsOffline <= 0 {
			t.Errorf("%s: offline comparison missing: %+v", sc.Scenario, sc)
		}
		// The region rebuild and the offline reference share one pipeline;
		// what is left between them is the workload: the patch is built on
		// the window the trigger saw, the reference on the whole final phase.
		if sc.RecoveryVsOffline > 1.5 {
			t.Errorf("%s: patched layout costs %.2f× the offline rebuild, over 1.5", sc.Scenario, sc.RecoveryVsOffline)
		}
	}
}
