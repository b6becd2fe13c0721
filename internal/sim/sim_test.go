package sim

import (
	"fmt"
	"testing"

	"paw/internal/descriptor"
	"paw/internal/invariant"
	"paw/internal/tuner"
)

// Methods returns every builder the harness drives.
func Methods() []string {
	return []string{MethodPAW, MethodQdTree, MethodKdTree}
}

// Check builds the scenario with the method at the given parallelism and
// runs the full oracle suite, optionally with precise descriptors installed
// (withPrecise) and the storage tuner exercised (tunerBudget > 0).
func Check(sc Scenario, method string, parallelism int, withPrecise bool, tunerBudget int64) error {
	l := Build(sc, method, parallelism)
	if withPrecise {
		if _, err := descriptor.Install(l, sc.Data, 4); err != nil {
			return fmt.Errorf("sim: precise install: %w", err)
		}
	}
	if err := invariant.Check(l, Inputs(sc, method)); err != nil {
		return err
	}
	if tunerBudget > 0 {
		queries := sc.Hist.Extend(sc.Delta).Boxes()
		extras := tuner.Select(l, sc.Data, queries, tunerBudget)
		if err := invariant.CheckTuner(l, sc.Data, queries, extras, tunerBudget); err != nil {
			return err
		}
	}
	return nil
}

// scenarioCount returns the simulation breadth: -short still covers ≥ 20
// seeded scenarios (the acceptance floor), full mode widens the sweep.
func scenarioCount(t *testing.T) int {
	if testing.Short() {
		return 21
	}
	return 36
}

// TestInvariantsAllBuilders is the harness's main gate: every builder, on
// every seeded scenario, must produce a layout that satisfies the full
// oracle suite. Every third scenario additionally installs precise
// descriptors (exercising the §V-A soundness oracle) and every fourth runs
// the storage tuner against a tenth of the layout size (§V-B oracle).
func TestInvariantsAllBuilders(t *testing.T) {
	for i, sc := range Scenarios(scenarioCount(t), 42) {
		sc, i := sc, i
		for _, method := range Methods() {
			method := method
			t.Run(sc.Name+"/"+method, func(t *testing.T) {
				t.Parallel()
				withPrecise := i%3 == 0
				var budget int64
				if i%4 == 0 {
					budget = sc.Data.TotalBytes() / 10
				}
				if err := Check(sc, method, 4, withPrecise, budget); err != nil {
					t.Fatalf("invariants violated: %v", err)
				}
			})
		}
	}
}

// TestParallelDeterminism asserts the byte-identity contract of parallel
// construction: for every builder, the layout built at parallelism 1 and at
// parallelism 4 (construction and routing) encode to the same digest.
func TestParallelDeterminism(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 4
	}
	for _, sc := range Scenarios(n, 1337) {
		sc := sc
		for _, method := range Methods() {
			method := method
			t.Run(sc.Name+"/"+method, func(t *testing.T) {
				t.Parallel()
				serial, err := Build(sc, method, 1).Digest()
				if err != nil {
					t.Fatalf("digest(serial): %v", err)
				}
				parallel, err := Build(sc, method, 4).Digest()
				if err != nil {
					t.Fatalf("digest(parallel): %v", err)
				}
				if serial != parallel {
					t.Fatalf("parallel build diverged from serial: %s vs %s", parallel, serial)
				}
			})
		}
	}
}

// TestScenariosDeterministic guards the harness itself: scenario generation
// is a pure function of (n, seed).
func TestScenariosDeterministic(t *testing.T) {
	a := Scenarios(8, 7)
	b := Scenarios(8, 7)
	if len(a) != len(b) {
		t.Fatalf("lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Seed != b[i].Seed || a[i].Delta != b[i].Delta {
			t.Fatalf("scenario %d diverges: %+v vs %+v", i, a[i], b[i])
		}
		da, err := Build(a[i], MethodPAW, 2).Digest()
		if err != nil {
			t.Fatal(err)
		}
		db, err := Build(b[i], MethodPAW, 2).Digest()
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatalf("scenario %d: same inputs, different layouts", i)
		}
	}
}
