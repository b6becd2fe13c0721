// Command pawgen makes and describes dataset files: PAWD binaries (or CSV when
// the name ends in .csv). `pawcli build -in` builds a layout over one, and
// pawworker and pawmaster load it beside that layout.
//
//	pawgen gen -dataset tpch -rows 120000 -out lineitem.pawd
//	pawgen info -in lineitem.pawd
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"paw/internal/dataset"
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
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `pawgen <command>:
  gen   generate a dataset file (-dataset tpch|osm|uniform -rows N -out F)
  info  describe a dataset file (-in F)
pawcli build -in F builds a layout over the file.`)
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

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "dataset file")
	mustParse(fs, args)
	if *in == "" {
		fatalf("info: -in is required")
	}
	data, err := dataset.ReadFile(*in)
	if err != nil {
		fatalf("%v", err)
	}
	dom := data.Domain()
	fmt.Printf("%s: %d rows, %d attributes, %d bytes simulated\n", *in, data.NumRows(), data.Dims(), data.TotalBytes())
	for d, name := range data.Names() {
		fmt.Printf("  %-18s [%g, %g]\n", name, dom.Lo[d], dom.Hi[d])
	}
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
