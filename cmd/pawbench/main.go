// Command pawbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pawbench -list
//	pawbench -exp fig16
//	pawbench -exp fig17,fig19 -tpch-rows 240000
//	pawbench -exp all -md > results.md
//
// Every experiment prints the same rows/series as the corresponding table or
// figure of the paper, measured on the scaled synthetic substrates (see
// DESIGN.md for the scaling rules).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"paw/internal/bench"
)

func main() {
	var (
		expFlag      = flag.String("exp", "", "experiment ID, comma-separated list, or \"all\"")
		list         = flag.Bool("list", false, "list available experiments")
		md           = flag.Bool("md", false, "emit markdown tables instead of aligned text")
		tpchRows     = flag.Int("tpch-rows", 0, "override the scaled TPC-H row count")
		osmRows      = flag.Int("osm-rows", 0, "override the scaled OSM row count")
		queries      = flag.Int("queries", 0, "override #Q (total queries; half historical)")
		seed         = flag.Int64("seed", 0, "override the master seed")
		parallelism  = flag.Int("parallelism", 0, "layout-construction workers (0 = all cores, 1 = serial)")
		construction = flag.String("construction", "", "write the construction benchmark (ns/op, allocs/op, speedup at 1/2/4/8 workers) as JSON to this path and exit")
		routing      = flag.String("routing", "", "write the routing benchmark (ns/query, q/s, allocs/query for linear vs indexed range+point routing) as JSON to this path and exit")
		scan         = flag.String("scan", "", "write the columnar-scan benchmark (MB/s, rows/s, bytes skipped, allocs/op, encoded-vs-naive speedup) as JSON to this path and exit")
		drift        = flag.String("drift", "", "write the drift benchmark (trigger fidelity, recovery time, queries served during migration, offline-rebuild baseline over live clusters) as JSON to this path and exit")
		rebalance    = flag.String("rebalance", "", "write the elastic-rebalance benchmark (data moved vs the consistent-hash ideal and query availability through a live join and graceful leave) as JSON to this path and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg := bench.DefaultConfig()
	if *tpchRows > 0 {
		cfg.TPCHRows = *tpchRows
	}
	if *osmRows > 0 {
		cfg.OSMRows = *osmRows
	}
	if *queries > 0 {
		cfg.NumQueries = *queries
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Parallelism = *parallelism

	if *construction != "" {
		if err := runConstruction(cfg, *construction); err != nil {
			fmt.Fprintf(os.Stderr, "pawbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *routing != "" {
		if err := runRouting(cfg, *routing); err != nil {
			fmt.Fprintf(os.Stderr, "pawbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *scan != "" {
		if err := runScan(cfg, *scan); err != nil {
			fmt.Fprintf(os.Stderr, "pawbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *drift != "" {
		if err := runDrift(cfg, *drift); err != nil {
			fmt.Fprintf(os.Stderr, "pawbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *rebalance != "" {
		if err := runRebalance(cfg, *rebalance); err != nil {
			fmt.Fprintf(os.Stderr, "pawbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *expFlag == "" {
		fmt.Fprintln(os.Stderr, "pawbench: use -list to see experiments, -exp <id>|all to run")
		os.Exit(2)
	}

	var exps []bench.Experiment
	if *expFlag == "all" {
		exps = bench.Registry()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "pawbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	for _, e := range exps {
		start := time.Now()
		tables := e.Run(cfg)
		elapsed := time.Since(start)
		for _, t := range tables {
			if *md {
				fmt.Println(t.Markdown())
			} else {
				fmt.Println(t.Format())
			}
		}
		fmt.Fprintf(os.Stderr, "[%s ran in %v]\n", e.ID, elapsed.Round(time.Millisecond))
	}
}
