// Command pawcli builds and inspects partition layouts and drives the full
// PAW stack. The REPL generates a dataset, builds a layout, materialises it
// into the block store, and then answers SQL queries through the Fig. 4
// pipeline — rewriter → router → a scan of each routed partition — printing
// the rows, the partitions, their stored bytes and the bytes left after
// row-group pruning. Timing the same answers on a live cluster is what
// `pawbench -exp table4,fig15` does.
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
// Build the layout a fleet boots from, over the dataset file pawgen wrote and
// pawworker and pawmaster load. It writes the layout, which carries the
// historical workload QH and the absolute δ it was built for (pawmaster's
// drift monitor reads both from it), and a structured build report (phase
// timings, Alg. 1–3 split statistics, tree shape, cost decomposition).
// Render the report with stats:
//
//	pawcli build -in lineitem.pawd -method paw -layout layout.pawl \
//	       -report build_report.json
//	pawcli stats build_report.json
//
// The REPL and build share one set of build settings, so the same -method,
// -queries, -delta and -seed over the same rows give the same layout.
//
// Validate a persisted layout against the paper's invariants under the scope
// it carries — partition geometry, grouped-split semantics, Lemma 1 and
// routing-index soundness (internal/invariant) — and summarise it:
//
//	pawcli check layout.pawl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/layout"
	"paw/internal/obs"
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
			if err := runBuild(os.Args[2:], os.Stdout); err != nil {
				fatalf("build: %v", err)
			}
			return
		case "stats":
			runStats(os.Args[2:])
			return
		}
	}
	s, sql, err := openREPL(os.Args[1:], os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	if sql != "" {
		s.run(sql, os.Stdout)
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
		s.run(stmt, os.Stdout)
	}
}

// settings are the build settings the REPL and `pawcli build` share.
type settings struct {
	method   string
	queries  int
	deltaPct float64
	seed     int64
}

func (s *settings) register(fs *flag.FlagSet) {
	fs.StringVar(&s.method, "method", "paw", "method: paw, qd-tree or kd-tree")
	fs.IntVar(&s.queries, "queries", 50, "historical query count used to build the layout")
	fs.Float64Var(&s.deltaPct, "delta", 1.0, "δ as % of the extent of the first column")
	fs.Int64Var(&s.seed, "seed", 7, "seed of the historical workload and the sample (the REPL generates its dataset from it too)")
}

// sampleBlocks is the block count bmin is set for: bmin = sample rows / 600.
const sampleBlocks = 600

// inputs derives the construction inputs over data: the historical workload
// drawn from the seed, a 10 % sample, bmin = sample/600 and δ = -delta % of
// the first column's extent (paw.FractionOfDomain's rule). PAW runs the §IV-E
// data-aware refinement, as drift's region rebuild does.
func (s settings) inputs(data *dataset.Dataset) (workload.Workload, []int, core.Params) {
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(s.queries, s.seed+1))
	sample := data.Sample(data.NumRows()/10, s.seed+2)
	return hist, sample, core.Params{
		MinRows:         max(2, len(sample)/sampleBlocks),
		Delta:           s.deltaPct / 100 * (dom.Hi[0] - dom.Lo[0]),
		DataAwareRefine: true,
	}
}

// session is what the REPL answers from: the layout materialised into the
// block store, and the router over it.
type session struct {
	l      *layout.Layout
	store  *blockstore.Store
	master *router.Master
}

// openREPL parses the REPL's flags, generates the dataset and builds its
// session; it returns the -sql statement too (empty: read statements from
// stdin).
func openREPL(args []string, out io.Writer) (*session, string, error) {
	fs := flag.NewFlagSet("pawcli", flag.ExitOnError)
	var s settings
	s.register(fs)
	var (
		ds       = fs.String("dataset", "tpch", "dataset: tpch or osm")
		rows     = fs.Int("rows", 120000, "dataset rows")
		sql      = fs.String("sql", "", "one-shot SQL statement (empty: REPL on stdin)")
		logLevel = fs.String("log-level", "info", "log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if _, err := obs.SetupLogger(*logLevel); err != nil {
		return nil, "", err
	}
	var data *dataset.Dataset
	switch *ds {
	case "tpch":
		data = dataset.TPCHLike(*rows, s.seed)
	case "osm":
		data = dataset.OSMLike(*rows, 10, s.seed)
	default:
		return nil, "", fmt.Errorf("unknown dataset %q", *ds)
	}
	hist, sample, p := s.inputs(data)
	fmt.Fprintf(out, "building %s layout over %d rows (%d-row sample, bmin=%d sample rows, delta %g)...\n",
		s.method, data.NumRows(), len(sample), p.MinRows, p.Delta)
	start := time.Now()
	l, err := core.BuildMethod(core.Method(s.method), data, sample, data.Domain(), hist, p)
	if err != nil {
		return nil, "", err
	}
	store := blockstore.Materialize(l, data, blockstore.Config{})
	master, err := router.NewMaster(l, data.Names())
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(out, "%s ready in %v: %d partitions over %d blocks; columns: %s\n",
		l, time.Since(start).Round(time.Millisecond), l.NumPartitions(), store.TotalBlocks(),
		strings.Join(data.Names(), ", "))
	return &session{l: l, store: store, master: master}, *sql, nil
}

// run answers one statement: rewrite, route, and scan every routed partition.
func (s *session) run(stmt string, out io.Writer) {
	plan, err := s.master.RouteSQL(stmt)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	var rows int
	var nominal, read int64
	for _, rp := range plan.Ranges {
		for _, id := range rp.Parts {
			p, err := s.store.Partition(id)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				return
			}
			st, err := s.store.ScanPartition(id, rp.Range)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				return
			}
			rows += st.Matched
			nominal += p.Bytes()
			read += st.BytesRead
		}
	}
	fmt.Fprintf(out, "%d sub-queries, %d partitions: %d rows, %.2f MB nominal I/O, %.2f MB after pruning\n",
		len(plan.Ranges), len(plan.PartitionIDs()), rows, float64(nominal)/1e6, float64(read)/1e6)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawcli: "+format+"\n", args...)
	os.Exit(1)
}
