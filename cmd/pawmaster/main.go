// Command pawmaster is the networked master node of Fig. 4: it loads the
// layout metadata, connects to the workers (ring partition ownership,
// matching pawworker's derivation) and serves SQL over TCP for pawsql
// clients.
//
//	pawmaster -data data.pawd -layout layout.pawl \
//	          -workers 127.0.0.1:7101,127.0.0.1:7102 -listen 127.0.0.1:7100
//
// With -replicas R > 1 the master keeps R copies of every partition and
// fails scans over to the next live replica when a worker is down.
// Placement is consistent hashing over the workers — the rule elastic
// clusters rebalance to, so a static fleet's first rebalance is a no-op.
// pawworker must be started with the same -replicas value so every process
// derives the same placement without coordination. Retries, backoff and the
// breaker (DESIGN.md §10) run on fixed values.
//
// With -membership the fleet is elastic (DESIGN.md §15): workers join and
// leave through a checksum-validated handshake on the client port, silent
// workers go suspect and then dead under the heartbeat failure detector
// (-suspect-after / -dead-after), and the master re-places partitions with
// minimal movement — on demand after a graceful leave, or automatically when
// the placement references a dead worker or a new member hosts nothing.
// Queries keep answering exactly throughout: rebalances ride the
// epoch-versioned migration machinery, so a failed round aborts with the old
// placement untouched.
//
// With -drift the master watches live queries for workload drift (DESIGN.md
// §13): when the stream leaves the layout's variance scope (-drift-delta,
// the δ the layout was built with, referenced against the -drift-hist query
// log) and observed scan cost regresses, it rebuilds the violated region and
// migrates the workers onto the patched layout without stopping service.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"paw/internal/blockstore"
	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/drift"
	"paw/internal/invariant"
	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/obs"
	"paw/internal/router"
	"paw/internal/trace"
	"paw/internal/workload"
)

func main() {
	var (
		dataPath   = flag.String("data", "", "dataset file (.pawd; column names drive SQL routing, full rows feed drift rebuilds)")
		layoutPath = flag.String("layout", "", "layout file (.pawl)")
		workers    = flag.String("workers", "", "comma-separated worker addresses")
		listen     = flag.String("listen", "127.0.0.1:7100", "client listen address")
		metrics    = flag.String("metrics", "", "serve /metrics (Prometheus text or ?format=json), /traces, /healthz, /readyz and /debug/pprof on this address (e.g. 127.0.0.1:9090); empty disables")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")

		traceSample = flag.Int("trace-sample", 0, "sample one query trace in every N (0: only forced EXPLAIN traces; needs -metrics for /traces)")
		traceOut    = flag.String("trace-out", "", "append one JSONL cost record per query to this file (schema "+trace.CostRecordSchema+")")
		slowQuery   = flag.Duration("slow-query", 0, "log a structured slow-query record for queries at or above this latency (0: off)")

		replicas     = flag.Int("replicas", 1, "copies per partition (pawworker needs the same value)")
		partial      = flag.Bool("partial", false, "answer from surviving replicas when a partition is lost instead of failing the query")
		callTimeout  = flag.Duration("call-timeout", 5*time.Second, "per-scan-RPC timeout, dial included (0: only the query deadline bounds calls)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "whole-query timeout when the client sends no deadline (0: unbounded)")

		memberOn     = flag.Bool("membership", false, "enable elastic membership: workers may join/leave at runtime and silent ones are declared dead (DESIGN.md §15)")
		suspectAfter = flag.Duration("suspect-after", 2*time.Second, "heartbeat silence before a worker goes suspect (still placed, still queried)")
		deadAfter    = flag.Duration("dead-after", 10*time.Second, "heartbeat silence before a worker is declared dead (deprioritised, rebalanced away)")

		resultCache = flag.Int("result-cache", 256, "clean-result cache entries, translated or dropped per partition on layout/placement change (0: off)")
		maxInflight = flag.Int("max-inflight", 256, "admission control: queries executing concurrently before new ones queue, 32 per client, and the excess is shed with an overload error (0: unbounded, no admission)")

		driftOn     = flag.Bool("drift", false, "watch live queries for workload drift and migrate the cluster onto an incrementally rebuilt layout when the variance scope is violated (needs -drift-hist and -drift-delta)")
		driftHist   = flag.String("drift-hist", "", "historical query log (.pawq) the layout was built from — the drift monitor's reference workload")
		driftDelta  = flag.Float64("drift-delta", 0, "variance scope δ the layout was built with (absolute domain units)")
		driftWindow = flag.Int("drift-window", 256, "drift monitor sliding window, in observed queries")
		driftCheck  = flag.Int("drift-check-every", 32, "run the drift decision every N observations")
		driftCost   = flag.Float64("drift-cost-factor", 1.3, "trigger only when the window's average opened bytes (the encoded size of the partitions its plans opened) exceed this factor times the baseline")
		driftGain   = flag.Float64("drift-min-gain", 0.05, "minimum fraction of modeled window cost a rebuild must cut, or the migration is skipped")
	)
	flag.Parse()
	if _, err := obs.SetupLogger(*logLevel); err != nil {
		fatalf("%v", err)
	}
	if *dataPath == "" || *layoutPath == "" || *workers == "" {
		fatalf("-data, -layout and -workers are required")
	}
	data, l, err := load(*dataPath, *layoutPath)
	if err != nil {
		fatalf("%v", err)
	}
	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		fatalf("%v", err)
	}
	addrs := strings.Split(*workers, ",")
	if *replicas < 1 || *replicas > len(addrs) {
		fatalf("-replicas %d out of range for %d workers", *replicas, len(addrs))
	}
	ids := make([]layout.ID, len(l.Parts))
	for i, p := range l.Parts {
		ids[i] = p.ID
	}
	all := make([]int, len(addrs))
	for i := range all {
		all[i] = i
	}
	rep := membership.RingPlacement(ids, all, *replicas)
	m, err := dist.NewMasterReplicated(rm, addrs, rep)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := dist.DefaultConfig()
	cfg.CallTimeout = *callTimeout
	cfg.QueryTimeout = *queryTimeout
	cfg.AllowPartial = *partial
	cfg.SlowQuery = *slowQuery
	cfg.ResultCacheSize = *resultCache
	cfg.MaxInflightQueries = *maxInflight
	m.Configure(cfg)
	// The tracer exists whenever traces can be produced: by sampling
	// (-trace-sample) or on demand (pawsql -explain always works, but only a
	// tracer retains those traces for /traces).
	var tracer *trace.Tracer
	if *traceSample > 0 || *metrics != "" {
		tracer = trace.New(trace.Config{SampleEvery: *traceSample})
		m.SetTracer(tracer)
	}
	if *traceOut != "" {
		cf, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("opening -trace-out: %v", err)
		}
		costLog := trace.NewCostLog(cf)
		m.SetCostLog(costLog)
		defer costLog.Close()
	}
	var reg *obs.Registry
	if *metrics != "" {
		// One registry for all layers: routing (latency histogram,
		// partitions/bytes touched), the distributed path (fan-out,
		// per-worker call timers, redials, in-flight) and the drift loop.
		reg = obs.New()
		rm.SetMetrics(reg)
		m.SetMetrics(reg)
		srv, err := obs.ServeWith(*metrics, reg, map[string]http.Handler{
			"/traces":  trace.Handler(tracer),
			"/healthz": obs.Healthz(),
			"/readyz":  obs.Readyz(m.Ready),
		})
		if err != nil {
			fatalf("metrics listener: %v", err)
		}
		defer srv.Close()
		slog.Info("telemetry enabled", "metrics", "http://"+srv.Addr()+"/metrics",
			"traces", "http://"+srv.Addr()+"/traces",
			"pprof", "http://"+srv.Addr()+"/debug/pprof/")
	}
	// Whatever the master encodes itself — drift-rebuilt partitions, the
	// rebalance fallback — it lays out like the workers' stores.
	builder := workerStore.Builder(data)
	if *driftOn {
		if *driftHist == "" || *driftDelta <= 0 {
			fatalf("-drift needs -drift-hist (the reference query log) and -drift-delta > 0")
		}
		hf, err := os.Open(*driftHist)
		if err != nil {
			fatalf("%v", err)
		}
		histLog, err := workload.DecodeLog(hf)
		hf.Close()
		if err != nil {
			fatalf("reading %s: %v", *driftHist, err)
		}
		ctl := drift.New(m, data, builder, histLog.Workload(), drift.Config{
			Window:     *driftWindow,
			CheckEvery: *driftCheck,
			Delta:      *driftDelta,
			CostFactor: *driftCost,
			MinGain:    *driftGain,
			Seed:       1,
		})
		ctl.SetMetrics(reg)
		ctl.SetTracer(tracer)
		ctl.Attach(true)
		defer ctl.Detach()
		slog.Info("drift monitor attached", "window", *driftWindow, "check_every", *driftCheck,
			"delta", *driftDelta, "cost_factor", *driftCost, "reference_queries", histLog.Len())
	}
	if *memberOn {
		src := payloadSource(l, data, builder)
		err := m.EnableMembership(dist.MembershipConfig{
			Detector:      membership.Config{SuspectAfter: *suspectAfter, DeadAfter: *deadAfter},
			TickEvery:     500 * time.Millisecond,
			AutoRebalance: true,
			PayloadSource: src,
		})
		if err != nil {
			fatalf("%v", err)
		}
		slog.Info("elastic membership enabled", "suspect_after", *suspectAfter,
			"dead_after", *deadAfter)
	}
	addr, err := m.Start(*listen)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("pawmaster serving %d partitions over %d workers on %s (metadata: %d bytes)\n",
		l.NumPartitions(), len(addrs), addr, rm.MemoryFootprint())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	m.Close()
}

// load reads the dataset and the layout and checks that they belong together.
// The layout file carries each partition's precise descriptor, computed from
// the dataset it was built over; beside another dataset those boxes would make
// the master drop partitions that hold matching rows — silently, where a
// descriptor-less layout would only have mis-sized them.
func load(dataPath, layoutPath string) (*dataset.Dataset, *layout.Layout, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, nil, err
	}
	data, err := dataset.Read(f)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", dataPath, err)
	}
	lf, err := os.Open(layoutPath)
	if err != nil {
		return nil, nil, err
	}
	l, err := layout.Decode(lf)
	lf.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", layoutPath, err)
	}
	if err := invariant.CheckData(l, data); err != nil {
		return nil, nil, fmt.Errorf("%s was not built over %s: %w", layoutPath, dataPath, err)
	}
	return data, l, nil
}

// workerStore is the block store configuration pawworker materialises with.
var workerStore = blockstore.Config{}

// payloadSource is the rebalance fallback for a partition no live worker still
// holds: the master has the full dataset, so it re-encodes the partition
// itself. With the workers' store's builder the payload is byte-for-byte what
// a worker would have shipped.
func payloadSource(l *layout.Layout, data *dataset.Dataset, builder *colstore.Builder) func(layout.ID) ([]byte, int64, error) {
	all := make([]int, data.NumRows())
	for i := range all {
		all[i] = i
	}
	byPart := l.RouteIndices(data, all)
	return func(id layout.ID) ([]byte, int64, error) {
		rows, ok := byPart[id]
		if !ok {
			return nil, 0, fmt.Errorf("partition %d routes no rows", id)
		}
		// Build reorders its argument; byPart is shared between calls.
		var buf bytes.Buffer
		if err := builder.Build(slices.Clone(rows)).Encode(&buf); err != nil {
			return nil, 0, err
		}
		return buf.Bytes(), int64(len(rows)), nil
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawmaster: "+format+"\n", args...)
	os.Exit(1)
}
