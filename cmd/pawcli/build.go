package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// runBuild implements `pawcli build`: construct a layout with telemetry
// enabled and emit a layout.BuildReport (JSON) plus, optionally, the sealed
// layout itself. The pipeline phases — generate, sample, construct, route,
// report — are timed as sequential spans, so their sum explains the wall
// time (`pawcli stats` prints the coverage; the acceptance bar is >= 90%).
func runBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		ds       = fs.String("dataset", "tpch", "dataset: tpch or osm")
		method   = fs.String("method", "paw", "method: paw, qd-tree or kd-tree")
		rows     = fs.Int("rows", 120000, "dataset rows")
		queries  = fs.Int("queries", 50, "historical query count used to build the layout")
		deltaPct = fs.Float64("delta", 1.0, "δ as %% of the domain")
		seed     = fs.Int64("seed", 7, "generator seed")
		parallel = fs.Int("parallelism", 0, "construction workers (0 = GOMAXPROCS)")
		report   = fs.String("report", "build_report.json", "build report output path (- for stdout)")
		layoutF  = fs.String("layout", "", "also persist the sealed layout to this path")
		logLevel = fs.String("log-level", "info", "log level: debug, info, warn, error")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pawcli build [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(1)
	}
	if _, err := obs.SetupLogger(*logLevel); err != nil {
		fatalf("%v", err)
	}

	reg := obs.New()
	wallStart := time.Now()
	var phases []layout.Phase
	phase := func(name string, f func()) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		phases = append(phases, layout.Phase{Name: name, Ns: d.Nanoseconds()})
		slog.Debug("phase done", "phase", name, "elapsed", d)
	}

	var data *dataset.Dataset
	var hist workload.Workload
	var delta float64
	phase("generate", func() {
		switch *ds {
		case "tpch":
			data = dataset.TPCHLike(*rows, *seed)
		case "osm":
			data = dataset.OSMLike(*rows, 10, *seed)
		default:
			fatalf("unknown dataset %q", *ds)
		}
		dom := data.Domain()
		hist = workload.Uniform(dom, workload.Defaults(*queries, *seed+1))
		maxExtent := 0.0
		for d := 0; d < dom.Dims(); d++ {
			if e := dom.Hi[d] - dom.Lo[d]; e > maxExtent {
				maxExtent = e
			}
		}
		delta = *deltaPct / 100 * maxExtent
	})

	var sample []int
	var minRows int
	phase("sample", func() {
		sample = data.Sample(*rows/10, *seed+2)
		minRows = len(sample) / 600
		if minRows < 2 {
			minRows = 2
		}
	})
	slog.Info("building layout", "method", *method, "rows", data.NumRows(),
		"sample", len(sample), "bmin", minRows, "delta", delta)

	var l *layout.Layout
	phase("construct", func() {
		switch *method {
		case "paw":
			l = core.Build(data, sample, data.Domain(), hist, core.Params{
				MinRows: minRows, Delta: delta, DataAwareRefine: true,
				Parallelism: *parallel, Obs: reg,
			})
		case "qd-tree":
			l = qdtree.Build(data, sample, data.Domain(), hist.Boxes(),
				qdtree.Params{MinRows: minRows, Parallelism: *parallel, Obs: reg})
		case "kd-tree":
			l = kdtree.Build(data, sample, data.Domain(),
				kdtree.Params{MinRows: minRows, Parallelism: *parallel, Obs: reg})
		default:
			fatalf("unknown method %q", *method)
		}
	})

	// Materialising binds the dataset to the layout as pawworker's store
	// will: beside the partition sizes of a routing pass it leaves every
	// partition's data envelope (§V-A), which the layout file carries to
	// pawmaster. The store itself is dropped, after the report has taken its
	// census: the encoded bytes under each physical encoding, and how many of
	// the raw chunks a scan can search.
	stored := make(map[string]int64)
	search := &layout.SearchCensus{ByColumn: make(map[string]int)}
	phase("route", func() {
		store := blockstore.Materialize(l, data, blockstore.Config{})
		for _, p := range l.Parts {
			if sp, err := store.Partition(p.ID); err == nil {
				for enc, b := range sp.Table.EncodedBytesByEncoding() {
					stored[enc] += b
				}
				raw, rawBits, searchable, pieces, rows := sp.Table.SearchCensus(search.ByColumn)
				search.RawChunks += raw
				search.RawBits += rawBits
				search.Searchable += searchable
				search.Pieces += pieces
				search.Rows += rows
			}
		}
	})

	var r *layout.BuildReport
	phase("report", func() {
		r = layout.NewBuildReport(l, reg.Snapshot())
		r.SampleRows = len(sample)
		r.StoredBytes, r.Search = stored, search
		wc := l.WorkloadCost(hist.Boxes(), nil)
		r.Cost = &layout.CostStats{
			WorkloadQueries: len(hist),
			WorkloadBytes:   wc,
			AvgQueryBytes:   l.AvgCost(hist.Boxes(), nil),
			ScanRatio:       l.ScanRatio(hist.Boxes(), nil),
		}
		if *layoutF != "" {
			f, err := os.Create(*layoutF)
			if err != nil {
				fatalf("%v", err)
			}
			if err := l.Encode(f); err != nil {
				fatalf("writing layout: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}
	})

	r.BuildInfo = obs.BuildVersion()
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.WallNs = time.Since(wallStart).Nanoseconds()
	r.Phases = phases

	if *report == "-" {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	} else {
		if err := r.WriteJSONFile(*report); err != nil {
			fatalf("writing report: %v", err)
		}
		fmt.Printf("%s: %d partitions in %v (phase coverage %.1f%%) -> %s\n",
			l, l.NumPartitions(), time.Duration(r.WallNs).Round(time.Millisecond),
			100*r.PhaseCoverage(), *report)
	}
	slog.Info("build complete", "partitions", l.NumPartitions(),
		"wall", time.Duration(r.WallNs), "coverage", r.PhaseCoverage())
}

// runStats implements `pawcli stats <report.json>...`: render build reports
// written by `pawcli build` or pawbench.
func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pawcli stats <build-report.json>...")
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(1)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(1)
	}
	for i, path := range fs.Args() {
		if i > 0 {
			fmt.Println()
		}
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		r, err := layout.ReadBuildReport(f)
		f.Close()
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		if fs.NArg() > 1 {
			fmt.Printf("== %s ==\n", path)
		}
		r.Render(os.Stdout)
	}
}
