package main

import (
	"fmt"
	"os"

	"paw/internal/bench"
)

// routingWorkers is the worker sweep of the batched routing mode. The
// single-query linear/indexed modes are inherently serial; batch speedups
// compound the index win with the fan-out.
var routingWorkers = []int{1, 2, 4, 8}

// runRouting measures master-side query routing (linear vs indexed vs
// batched; range and point) and writes the machine-readable report
// (BENCH_routing.json) so the performance trajectory is tracked across PRs.
func runRouting(cfg bench.Config, path string) error {
	rep := bench.RoutingBench(cfg, routingWorkers)
	if err := writeReport(path, &rep, &rep.Meta); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "routing benchmark (GOMAXPROCS=%d, %d partitions, index height %d) -> %s\n",
		rep.GOMAXPROCS, rep.Partitions, rep.IndexHeight, path)
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "  %-14s workers=%d  %8d ns/query  %12.0f q/s  %8.2f allocs/query  %6.2fx\n",
			r.Mode, r.Workers, r.NsPerQuery, r.QueriesPerSec, r.AllocsPerQuery, r.SpeedupVsLinear)
	}
	return nil
}
