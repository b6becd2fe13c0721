package main

import (
	"fmt"
	"os"

	"paw/internal/bench"
)

// runRebalance measures the elastic-membership lifecycle on a live
// in-process cluster — a worker joining over the wire protocol, the
// minimal-movement rebalance onto it, and its graceful drain-and-leave —
// and writes the machine-readable report (BENCH_rebalance.json): data moved
// vs the consistent-hash ideal and query availability through both events.
func runRebalance(cfg bench.Config, path string) error {
	rep, err := bench.RebalanceBench(cfg, bench.RebalanceOptions{})
	if err != nil {
		return err
	}
	if err := writeReport(path, &rep, &rep.Meta); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rebalance benchmark (%d workers, %d replicas, %d partitions over %d rows) -> %s\n",
		rep.Workers, rep.Replicas, rep.Partitions, rep.Rows, path)
	for _, ev := range rep.Events {
		fmt.Fprintf(os.Stderr, "  %-5s %d->%d workers: moved %d/%d copies (ideal %.1f, ratio %.2f), %d B in %d ms\n",
			ev.Event, ev.WorkersBefore, ev.WorkersAfter, ev.MovedPartitions, ev.TotalCopies,
			ev.IdealMoves, ev.MoveRatio, ev.MovedBytes, ev.RebalanceMillis)
		fmt.Fprintf(os.Stderr, "    availability %.4f (%d queries, %d errors, %d wrong)\n",
			ev.Availability, ev.QueriesDuring, ev.QueryErrors, ev.WrongAnswers)
	}
	return nil
}
