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
// placement untouched. The master holds no partition data: every moved
// partition ships from a worker that holds it. Under -replicas 1 a crashed
// worker's partitions stay unavailable — queries fail, or answer partially
// for clients that allow it — until that worker rejoins its slot with its
// files; replication is what keeps them served.
//
// With -drift the master watches live queries for workload drift (DESIGN.md
// §13): when the stream leaves the layout's variance scope (the δ and the
// historical workload QH the layout file carries) and observed scan cost
// regresses, it rebuilds the violated region and migrates the workers onto
// the patched layout without stopping service.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"paw/internal/blockstore"
	"paw/internal/dist"
	"paw/internal/drift"
	"paw/internal/invariant"
	"paw/internal/membership"
	"paw/internal/obs"
	"paw/internal/router"
	"paw/internal/trace"
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
		callTimeout  = flag.Duration("call-timeout", 5*time.Second, "per-scan-RPC timeout, dial included (0: only the query deadline bounds calls)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "whole-query timeout when the client sends no deadline (0: unbounded)")

		memberOn     = flag.Bool("membership", false, "enable elastic membership: workers may join/leave at runtime and silent ones are declared dead (DESIGN.md §15)")
		suspectAfter = flag.Duration("suspect-after", 2*time.Second, "heartbeat silence before a worker goes suspect (still placed, still queried)")
		deadAfter    = flag.Duration("dead-after", 10*time.Second, "heartbeat silence before a worker is declared dead (deprioritised, rebalanced away)")

		resultCache = flag.Int("result-cache", 256, "clean-result cache entries, translated or dropped per partition on layout/placement change (0: off)")
		maxInflight = flag.Int("max-inflight", 256, "admission control: queries executing concurrently before new ones queue, 32 per client, and the excess is shed with an overload error (0: unbounded, no admission)")

		driftOn     = flag.Bool("drift", false, "watch live queries for workload drift and migrate the cluster onto an incrementally rebuilt layout when the variance scope is violated (the scope is the QH and δ the layout carries)")
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
	data, l, err := invariant.LoadPair(*dataPath, *layoutPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *driftOn && len(l.Hist) == 0 {
		fatalf("-drift: %s carries no historical workload to watch the scope of; build it with pawcli build -in", *layoutPath)
	}
	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		fatalf("%v", err)
	}
	addrs := strings.Split(*workers, ",")
	if *replicas < 1 || *replicas > len(addrs) {
		fatalf("-replicas %d out of range for %d workers", *replicas, len(addrs))
	}
	m, err := dist.NewMasterReplicated(rm, addrs, membership.StaticPlacement(l, len(addrs), *replicas))
	if err != nil {
		fatalf("%v", err)
	}
	cfg := dist.DefaultConfig()
	cfg.CallTimeout = *callTimeout
	cfg.QueryTimeout = *queryTimeout
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
		// per-worker call histograms, redials, in-flight) and the drift loop.
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
	if *driftOn {
		// Drift-rebuilt partitions are laid out like the workers' stores.
		ctl := drift.New(m, data, workerStore.Builder(data), drift.Config{
			Window:     *driftWindow,
			CheckEvery: *driftCheck,
			CostFactor: *driftCost,
			MinGain:    *driftGain,
			Seed:       1,
		})
		ctl.SetMetrics(reg)
		ctl.SetTracer(tracer)
		ctl.Attach(true)
		defer ctl.Detach()
		slog.Info("drift monitor attached", "window", *driftWindow, "check_every", *driftCheck,
			"delta", l.Delta, "cost_factor", *driftCost, "reference_queries", len(l.Hist))
	}
	if *memberOn {
		err := m.EnableMembership(dist.MembershipConfig{
			Detector:      membership.Config{SuspectAfter: *suspectAfter, DeadAfter: *deadAfter},
			AutoRebalance: true,
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

// workerStore is the block store configuration pawworker materialises with.
var workerStore = blockstore.Config{}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawmaster: "+format+"\n", args...)
	os.Exit(1)
}
