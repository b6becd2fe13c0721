// Command pawgen generates, inspects and partitions dataset files, wiring
// together the on-disk formats: PAWD datasets, PAWC columnar tables and PAWL
// layout metadata.
//
//	pawgen gen -dataset tpch -rows 120000 -out lineitem.pawd
//	pawgen info -in lineitem.pawd
//	pawgen partition -in lineitem.pawd -method paw -queries 50 -layout-out layout.pawl
//	pawgen layout-info -in layout.pawl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "partition":
		cmdPartition(os.Args[2:])
	case "layout-info":
		cmdLayoutInfo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `pawgen <command>:
  gen          generate a dataset file (-dataset tpch|osm|uniform -rows N -out F)
  info         describe a dataset file (-in F)
  partition    build and save a layout (-in F -method paw|qd-tree|kd-tree -layout-out F)
  layout-info  describe a layout file (-in F)`)
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	ds := fs.String("dataset", "tpch", "tpch, osm or uniform")
	rows := fs.Int("rows", 120000, "row count")
	dims := fs.Int("dims", 4, "dimensions (uniform only)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "data.pawd", "output path")
	normalize := fs.Bool("normalize", false, "normalize attributes to [0,1]")
	mustParse(fs, args)

	var data *dataset.Dataset
	switch *ds {
	case "tpch":
		data = dataset.TPCHLike(*rows, *seed)
	case "osm":
		data = dataset.OSMLike(*rows, 10, *seed)
	case "uniform":
		data = dataset.Uniform(*rows, *dims, *seed)
	default:
		fatalf("unknown dataset %q", *ds)
	}
	if *normalize {
		data = data.Normalize()
	}
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if strings.HasSuffix(*out, ".csv") {
		if err := data.WriteCSV(f); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("wrote %s: %d rows x %d attrs (CSV)\n", *out, data.NumRows(), data.Dims())
		return
	}
	n, err := data.WriteTo(f)
	if err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	fmt.Printf("wrote %s: %d rows x %d attrs, %d bytes on disk\n", *out, data.NumRows(), data.Dims(), n)
}

// loadDataset reads .csv files as CSV and everything else as PAWD binary.
func loadDataset(path string) *dataset.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	var data *dataset.Dataset
	if strings.HasSuffix(path, ".csv") {
		data, err = dataset.ReadCSV(f)
	} else {
		data, err = dataset.Read(f)
	}
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	return data
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "dataset file")
	mustParse(fs, args)
	if *in == "" {
		fatalf("info: -in is required")
	}
	data := loadDataset(*in)
	dom := data.Domain()
	fmt.Printf("%s: %d rows, %d attributes, %d bytes simulated\n", *in, data.NumRows(), data.Dims(), data.TotalBytes())
	for d, name := range data.Names() {
		fmt.Printf("  %-18s [%g, %g]\n", name, dom.Lo[d], dom.Hi[d])
	}
}

func cmdPartition(args []string) {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	in := fs.String("in", "", "dataset file")
	method := fs.String("method", "paw", "paw, qd-tree or kd-tree")
	queries := fs.Int("queries", 50, "historical query count")
	deltaPct := fs.Float64("delta", 1.0, "δ as %% of the domain (paw)")
	blocks := fs.Int("blocks", 600, "target block count (sets bmin)")
	seed := fs.Int64("seed", 2, "workload seed")
	layoutOut := fs.String("layout-out", "layout.pawl", "layout output path")
	queriesOut := fs.String("queries-out", "", "also save the historical workload as a query log (.pawq) — pawmaster's -drift-hist reference")
	mustParse(fs, args)
	if *in == "" {
		fatalf("partition: -in is required")
	}
	data := loadDataset(*in)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(*queries, *seed))
	sample := data.Sample(data.NumRows()/10, *seed+1)
	minRows := len(sample) / *blocks
	if minRows < 2 {
		minRows = 2
	}
	delta := *deltaPct / 100 * (dom.Hi[0] - dom.Lo[0])

	var l *layout.Layout
	switch *method {
	case "paw":
		l = core.Build(data, sample, dom, hist, core.Params{MinRows: minRows, Delta: delta})
		// pawmaster's -drift-delta takes this absolute value, not the percentage.
		fmt.Printf("delta %g (%g%% of %s's extent)\n", delta, *deltaPct, data.Names()[0])
	case "qd-tree":
		l = qdtree.Build(data, sample, dom, hist.Boxes(), qdtree.Params{MinRows: minRows})
	case "kd-tree":
		l = kdtree.Build(data, sample, dom, kdtree.Params{MinRows: minRows})
	default:
		fatalf("unknown method %q", *method)
	}
	// Not just routed: materialising as pawworker will also leaves every
	// partition's data envelope (§V-A) in the file pawmaster routes on.
	blockstore.Materialize(l, data, blockstore.Config{})
	f, err := os.Create(*layoutOut)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := l.Encode(f); err != nil {
		fatalf("writing %s: %v", *layoutOut, err)
	}
	fmt.Printf("wrote %s: %s\n", *layoutOut, l)
	if *queriesOut != "" {
		var qlog workload.Log
		for _, q := range hist {
			qlog.Record(q.Box)
		}
		qf, err := os.Create(*queriesOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer qf.Close()
		if err := qlog.Encode(qf); err != nil {
			fatalf("writing %s: %v", *queriesOut, err)
		}
		fmt.Printf("wrote %s: %d historical queries\n", *queriesOut, qlog.Len())
	}
}

func cmdLayoutInfo(args []string) {
	fs := flag.NewFlagSet("layout-info", flag.ExitOnError)
	in := fs.String("in", "", "layout file")
	mustParse(fs, args)
	if *in == "" {
		fatalf("layout-info: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	l, err := layout.Decode(f)
	if err != nil {
		fatalf("reading %s: %v", *in, err)
	}
	fmt.Println(l)
	var minRows, maxRows int64 = 1 << 62, 0
	irr := 0
	for _, p := range l.Parts {
		if p.FullRows < minRows {
			minRows = p.FullRows
		}
		if p.FullRows > maxRows {
			maxRows = p.FullRows
		}
		if p.Desc.Kind() == layout.KindIrregular {
			irr++
		}
	}
	fmt.Printf("partitions: %d (%d irregular); rows per partition: min %d, max %d\n",
		l.NumPartitions(), irr, minRows, maxRows)
}

func mustParse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawgen: "+format+"\n", args...)
	os.Exit(1)
}
