// Command pawviz renders 2-d partition layouts together with query
// workloads, reproducing the case study of Figures 13–14: partition
// boundaries in green, query regions in red.
//
// Usage:
//
//	pawviz -method paw -workload future -out paw_future.svg
//	pawviz -dataset osm -method qd-tree -workload hist -out qd_hist.svg
//	pawviz -method kd-tree -ascii
//
// The dataset is projected to its first two dimensions for rendering.
package main

import (
	"flag"
	"fmt"
	"os"

	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/viz"
	"paw/internal/workload"
)

func main() {
	var (
		ds       = flag.String("dataset", "tpch", "dataset: tpch or osm")
		method   = flag.String("method", "paw", "method: paw, qd-tree or kd-tree")
		wl       = flag.String("workload", "hist", "workload to draw: hist or future")
		rows     = flag.Int("rows", 60000, "dataset rows")
		queries  = flag.Int("queries", 12, "historical query count")
		deltaPct = flag.Float64("delta", 1.0, "δ as %% of the domain")
		out      = flag.String("out", "", "SVG output path (empty: stdout summary only)")
		ascii    = flag.Bool("ascii", false, "print an ASCII rendering")
		seed     = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

	var data *dataset.Dataset
	switch *ds {
	case "tpch":
		data = dataset.TPCHLike(*rows, *seed).Project(2).Normalize()
	case "osm":
		data = dataset.OSMLike(*rows, 10, *seed).Normalize()
	default:
		fatalf("unknown dataset %q", *ds)
	}
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.GenParams{
		NumQueries: *queries, MaxRangeFrac: 0.10, Centers: 10, SigmaFrac: 0.10, Seed: *seed + 1,
	})
	delta := *deltaPct / 100 * (dom.Hi[0] - dom.Lo[0])
	fut := workload.Future(hist, delta, 1, *seed+2)

	sample := data.Sample(*rows/10, *seed+3)
	minRows := len(sample) / 100
	if minRows < 2 {
		minRows = 2
	}
	l, err := core.BuildMethod(core.Method(*method), data, sample, dom, hist, core.Params{MinRows: minRows, Delta: delta})
	if err != nil {
		fatalf("%v", err)
	}
	l.Route(data)

	drawn := hist
	if *wl == "future" {
		drawn = fut
	}
	fmt.Printf("%s on %s: %d partitions, scan ratio on %s workload: %.3f%%\n",
		*method, *ds, l.NumPartitions(), *wl, 100*l.ScanRatio(drawn.Boxes(), nil))

	if *ascii {
		fmt.Println(viz.ASCII(l, drawn, dom, 96, 36))
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(viz.SVG(l, drawn, dom, 800, 800)), 0o644); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawviz: "+format+"\n", args...)
	os.Exit(1)
}
