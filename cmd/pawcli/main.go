// Command pawcli is an end-to-end driver for the full PAW stack: it
// generates a dataset, builds a partition layout, materialises it into the
// block store, and then answers SQL queries through the Fig. 4 pipeline —
// rewriter → router → a scan of each routed partition — printing the rows,
// the partitions, their stored bytes and the bytes left after row-group
// pruning. Timing the same answers on a live cluster is what `pawbench -exp
// table4,fig15` does.
//
// One-shot:
//
//	pawcli -dataset tpch -rows 120000 -method paw \
//	       -sql "SELECT * FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20"
//
// REPL (reads one SQL statement per line):
//
//	pawcli -dataset osm -method paw
//
// Build a layout with telemetry enabled and emit a structured build report
// (phase timings, Alg. 1–3 split statistics, tree shape, cost decomposition),
// then render it:
//
//	pawcli build -dataset tpch -rows 120000 -method paw -report build_report.json
//	pawcli stats build_report.json
//
// Validate a persisted layout (written by pawgen) against the paper's
// sealed-layout invariants — partition geometry, grouped-split semantics and
// routing-index soundness (internal/invariant):
//
//	pawcli check layout.pawl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/qdtree"
	"paw/internal/router"
	"paw/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "check":
			runCheck(os.Args[2:])
			return
		case "build":
			runBuild(os.Args[2:])
			return
		case "stats":
			runStats(os.Args[2:])
			return
		}
	}
	var (
		ds       = flag.String("dataset", "tpch", "dataset: tpch or osm")
		method   = flag.String("method", "paw", "method: paw, qd-tree or kd-tree")
		rows     = flag.Int("rows", 120000, "dataset rows")
		queries  = flag.Int("queries", 50, "historical query count used to build the layout")
		deltaPct = flag.Float64("delta", 1.0, "δ as %% of the domain")
		sql      = flag.String("sql", "", "one-shot SQL statement (empty: REPL on stdin)")
		seed     = flag.Int64("seed", 7, "generator seed")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()
	if _, err := obs.SetupLogger(*logLevel); err != nil {
		fatalf("%v", err)
	}

	var data *dataset.Dataset
	switch *ds {
	case "tpch":
		data = dataset.TPCHLike(*rows, *seed)
	case "osm":
		data = dataset.OSMLike(*rows, 10, *seed)
	default:
		fatalf("unknown dataset %q", *ds)
	}
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(*queries, *seed+1))
	// δ as a fraction of the largest domain extent (datasets here are not
	// normalized so SQL predicates keep their natural units).
	maxExtent := 0.0
	for d := 0; d < dom.Dims(); d++ {
		if e := dom.Hi[d] - dom.Lo[d]; e > maxExtent {
			maxExtent = e
		}
	}
	delta := *deltaPct / 100 * maxExtent

	sample := data.Sample(*rows/10, *seed+2)
	minRows := len(sample) / 600
	if minRows < 2 {
		minRows = 2
	}
	fmt.Printf("building %s layout over %d rows (%d-row sample, bmin=%d sample rows)...\n",
		*method, data.NumRows(), len(sample), minRows)
	start := time.Now()
	var l *layout.Layout
	switch *method {
	case "paw":
		l = core.Build(data, sample, dom, hist, core.Params{MinRows: minRows, Delta: delta, DataAwareRefine: true})
	case "qd-tree":
		l = qdtree.Build(data, sample, dom, hist.Boxes(), qdtree.Params{MinRows: minRows})
	case "kd-tree":
		l = kdtree.Build(data, sample, dom, kdtree.Params{MinRows: minRows})
	default:
		fatalf("unknown method %q", *method)
	}
	store := blockstore.Materialize(l, data, blockstore.Config{})
	master, err := router.NewMaster(l, data.Names())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s ready in %v: %d partitions over %d blocks; columns: %s\n",
		l, time.Since(start).Round(time.Millisecond), l.NumPartitions(), store.TotalBlocks(),
		strings.Join(data.Names(), ", "))

	run := func(stmt string) {
		plan, err := master.RouteSQL(stmt)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		var rows int
		var nominal, read int64
		for _, rp := range plan.Ranges {
			for _, id := range rp.Parts {
				p, err := store.Partition(id)
				if err != nil {
					fmt.Printf("error: %v\n", err)
					return
				}
				st, err := store.ScanPartition(id, rp.Range)
				if err != nil {
					fmt.Printf("error: %v\n", err)
					return
				}
				rows += st.Matched
				nominal += p.Bytes()
				read += st.BytesRead
			}
		}
		fmt.Printf("%d sub-queries, %d partitions: %d rows, %.2f MB nominal I/O, %.2f MB after pruning\n",
			len(plan.Ranges), len(plan.PartitionIDs()), rows, float64(nominal)/1e6, float64(read)/1e6)
	}

	if *sql != "" {
		run(*sql)
		return
	}
	fmt.Println(`enter SQL (e.g. SELECT * FROM t WHERE l_quantity >= 10 AND l_shipdate <= 400), ctrl-D to exit`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("paw> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" {
			continue
		}
		if strings.EqualFold(stmt, "exit") || strings.EqualFold(stmt, "quit") {
			return
		}
		run(stmt)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawcli: "+format+"\n", args...)
	os.Exit(1)
}
