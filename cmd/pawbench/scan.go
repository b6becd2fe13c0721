package main

import (
	"fmt"
	"os"

	"paw/internal/bench"
)

// runScan measures the vectorized columnar scan kernels against the naive
// reference scan (encoded columns, selection vectors, parallel row groups)
// and writes the machine-readable report (BENCH_scan.json) so kernel
// throughput is tracked across PRs.
func runScan(cfg bench.Config, path string) error {
	rep := bench.ScanBench(cfg)
	if err := writeReport(path, &rep, &rep.Meta); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scan benchmark (%d rows, %d groups, %.2fx compression, %v) -> %s\n",
		rep.Rows, rep.RowGroups, rep.CompressionRatio, rep.Encodings, path)
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "  %-9s %-16s sel=%.3f  %10d ns/op  %8.0f MB/s (%5.0f decoded)  %6.1f allocs/op  read %8d skip %8d  %6.2fx\n",
			r.Family, r.Mode, r.TargetSelectivity, r.NsPerOp, r.MBPerSec, r.DecodedMBPerSec, r.AllocsPerOp, r.BytesRead, r.BytesSkipped, r.SpeedupVsNaive)
	}
	return nil
}
