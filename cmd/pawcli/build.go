package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/workload"
)

// runBuild implements `pawcli build`: build the layout over the dataset file
// -in with telemetry enabled, write it (-layout, materialised first so it
// carries every partition's data envelope, with the QH and δ it was built
// for), write the materialised partitions pawworker serves (-store) and emit
// a layout.BuildReport (JSON). The pipeline phases —
// load, sample, construct, route, report — are timed as sequential spans, so
// their sum explains the wall time (`pawcli stats` prints the coverage; the
// acceptance bar is >= 90%).
func runBuild(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var s settings
	s.register(fs)
	var (
		in       = fs.String("in", "", "dataset file (.pawd, as pawgen gen writes it)")
		parallel = fs.Int("parallelism", 0, "construction workers (0 = GOMAXPROCS)")
		report   = fs.String("report", "build_report.json", "build report output path (- for stdout)")
		layoutF  = fs.String("layout", "", "also persist the sealed layout to this path")
		storeDir = fs.String("store", "", "also write every partition to DIR/<id>.pawc, the files pawworker -store serves")
		logLevel = fs.String("log-level", "info", "log level: debug, info, warn, error")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: pawcli build -in data.pawd [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("-in is required (a dataset file from pawgen gen)")
	}
	if _, err := obs.SetupLogger(*logLevel); err != nil {
		return err
	}

	reg := obs.New()
	wallStart := time.Now()
	var phases []layout.Phase
	phase := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		phases = append(phases, layout.Phase{Name: name, Ns: d.Nanoseconds()})
		slog.Debug("phase done", "phase", name, "elapsed", d)
		return err
	}

	var data *dataset.Dataset
	if err := phase("load", func() (err error) {
		data, err = dataset.ReadFile(*in)
		return err
	}); err != nil {
		return err
	}

	var hist workload.Workload
	var sample []int
	var p core.Params
	phase("sample", func() error {
		hist, sample, p = s.inputs(data)
		p.Parallelism, p.Obs = *parallel, reg
		return nil
	})
	slog.Info("building layout", "method", s.method, "rows", data.NumRows(),
		"sample", len(sample), "bmin", p.MinRows, "delta", p.Delta)

	var l *layout.Layout
	if err := phase("construct", func() (err error) {
		l, err = core.BuildMethod(core.Method(s.method), data, sample, data.Domain(), hist, p)
		return err
	}); err != nil {
		return err
	}

	// Materialising binds the dataset to the layout: beside the partition
	// sizes of a routing pass it leaves every partition's data envelope
	// (§V-A), which the layout file carries to pawmaster and pawworker. The
	// store is written to -store, if asked, and dropped after the report has
	// taken its census: the encoded bytes under each physical encoding, and
	// how many of the packed chunks a scan can search.
	stored := make(map[string]int64)
	search := &layout.SearchCensus{ByColumn: make(map[string]int)}
	if err := phase("route", func() error {
		store := blockstore.Materialize(l, data, blockstore.Config{})
		for _, part := range l.Parts {
			if sp, err := store.Partition(part.ID); err == nil {
				for enc, b := range sp.Table.EncodedBytesByEncoding() {
					stored[enc] += b
				}
				raw, rawBits, packed, searchable, pieces, rows := sp.Table.SearchCensus(search.ByColumn)
				search.RawChunks += raw
				search.RawBits += rawBits
				search.Packed += packed
				search.Searchable += searchable
				search.Pieces += pieces
				search.Rows += rows
			}
		}
		if *storeDir == "" {
			return nil
		}
		fmt.Fprintf(out, "writing %d partitions to %s\n", l.NumPartitions(), *storeDir)
		return store.WriteDir(*storeDir)
	}); err != nil {
		return err
	}

	var r *layout.BuildReport
	if err := phase("report", func() error {
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
			if err := writeFile(*layoutF, l.Encode); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s: %s\n", *layoutF, l)
		}
		return nil
	}); err != nil {
		return err
	}

	r.BuildInfo = obs.BuildVersion()
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.WallNs = time.Since(wallStart).Nanoseconds()
	r.Phases = phases

	if *report == "-" {
		return r.WriteJSON(out)
	}
	if err := r.WriteJSONFile(*report); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	fmt.Fprintf(out, "%s: %d partitions in %v (phase coverage %.1f%%) -> %s\n",
		l, l.NumPartitions(), time.Duration(r.WallNs).Round(time.Millisecond),
		100*r.PhaseCoverage(), *report)
	slog.Info("build complete", "partitions", l.NumPartitions(),
		"wall", time.Duration(r.WallNs), "coverage", r.PhaseCoverage())
	return nil
}

// writeFile creates path and fills it with enc.
func writeFile(path string, enc func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
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
