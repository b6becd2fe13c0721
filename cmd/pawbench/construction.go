package main

import (
	"fmt"
	"os"

	"paw/internal/bench"
)

// constructionWorkers is the worker sweep recorded in the construction
// benchmark JSON. Serial (1) must come first: speedups are computed
// against it.
var constructionWorkers = []int{1, 2, 4, 8}

// runConstruction measures layout construction at each worker count and
// writes the machine-readable report (BENCH_construction.json) so the
// performance trajectory is tracked across PRs.
func runConstruction(cfg bench.Config, path string) error {
	rep := bench.ConstructionBench(cfg, constructionWorkers)
	if err := writeReport(path, &rep, &rep.Meta); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "construction benchmark (GOMAXPROCS=%d, %d sample rows, bmin=%d) -> %s\n",
		rep.GOMAXPROCS, rep.SampleRows, rep.MinRows, path)
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "  %-12s workers=%d  %12d ns/op  %9d allocs/op  %6.2fx\n",
			r.Method, r.Workers, r.NsPerOp, r.AllocsPerOp, r.SpeedupVsSerial)
	}
	return nil
}
