// Distributed mode: spins up the Fig. 4 architecture as real TCP servers —
// four workers hosting partitions of a PAW layout, a master owning the
// routing metadata, and a SQL client — all in one process over loopback.
// The master also records every routed range into a query log, the
// production source of the "historical workload" for the next layout build.
//
// The placement is replicated under a storage budget (the §V-B tuner
// direction): hot partitions get a second copy on another worker, and the
// demo kills a worker mid-run to show the master failing scans over to the
// surviving replicas.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"paw"
	"paw/internal/blockstore"
	"paw/internal/dist"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/trace"
	"paw/internal/workload"
)

func main() {
	metrics := flag.String("metrics", "", "serve /metrics, /traces, /healthz, /readyz and /debug/pprof on this address (e.g. :9090); empty disables")
	hold := flag.Bool("hold", false, "keep the cluster running after the demo queries (ctrl-C to exit)")
	traceOut := flag.String("trace-out", "", "write the per-query JSONL cost records to this file")
	tracesDump := flag.String("traces-dump", "", "after the demo, write the /traces JSON document (recent traces + exemplars) to this file")
	flag.Parse()

	const workers = 4
	data := paw.GenerateTPCH(120_000, 61)
	hist := paw.UniformWorkload(data.Domain(), 50, 62)
	l, err := paw.Build(data, hist, paw.Options{
		Method: paw.MethodPAW, MinRows: 20, SampleRows: 12_000,
		Delta: paw.FractionOfDomain(data.Domain(), 0.0005),
	})
	if err != nil {
		log.Fatal(err)
	}
	store := blockstore.Materialize(l, data, blockstore.Config{})

	// Workload-aware placement (future work §VII-2), then replicas for the
	// hottest partitions under a storage budget of half the dataset: the
	// spare copies are what the master fails over to when a worker dies.
	assign := placement.Optimize(l, hist.Boxes(), workers)
	var totalBytes int64
	for _, p := range l.Parts {
		totalBytes += p.Bytes()
	}
	rep := placement.Replicate(l, hist.Boxes(), workers, assign, totalBytes/2)
	var copies int
	for _, ws := range rep {
		copies += len(ws) - 1
	}
	perWorker := make([][]layout.ID, workers)
	for id, ws := range rep {
		for _, w := range ws {
			perWorker[w] = append(perWorker[w], id)
		}
	}
	fleet := make([]*dist.Worker, workers)
	addrs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wk := dist.NewWorker(store, perWorker[w])
		addr, err := wk.Start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer wk.Close()
		fleet[w] = wk
		addrs[w] = addr
		fmt.Printf("worker %d: %d partitions on %s\n", w, len(perWorker[w]), addr)
	}
	fmt.Printf("replication: %d spare copies within a %.2f MB budget\n",
		copies, float64(totalBytes/2)/1e6)

	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		log.Fatal(err)
	}
	var qlog workload.Log
	rm.SetRecorder(qlog.Record)
	m, err := dist.NewMasterReplicated(rm, addrs, rep)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dist.DefaultConfig()
	cfg.CallTimeout = 2 * time.Second
	cfg.Retry.BaseBackoff = 5 * time.Millisecond
	cfg.SlowQuery = 250 * time.Millisecond
	m.Configure(cfg)
	reg := obs.New()
	rm.SetMetrics(reg)
	m.SetMetrics(reg)
	// Trace every query: the demo is tiny, and the dump/exemplars are the
	// point. Production would sample (e.g. SampleEvery: 100).
	tracer := trace.New(trace.Config{SampleEvery: 1})
	m.SetTracer(tracer)
	if *traceOut != "" {
		cf, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		costLog := trace.NewCostLog(cf)
		m.SetCostLog(costLog)
		defer costLog.Close()
	}
	if *metrics != "" {
		srv, err := obs.ServeWith(*metrics, reg, map[string]http.Handler{
			"/traces":  trace.Handler(tracer),
			"/healthz": obs.Healthz(),
			"/readyz":  obs.Readyz(m.Ready),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("telemetry: curl http://%s/metrics (also /traces, /healthz, /readyz)\n", srv.Addr())
	}
	maddr, err := m.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	fmt.Printf("master: %s (metadata %d bytes)\n\n", maddr, rm.MemoryFootprint())

	client, err := dist.DialMux(maddr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	for _, sql := range []string{
		"SELECT * FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20",
		"SELECT * FROM lineitem WHERE l_shipdate BETWEEN 100 AND 300 AND l_discount >= 0.05",
		"SELECT * FROM lineitem WHERE l_quantity <= 2 OR l_quantity >= 49",
	} {
		resp, err := client.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  -> %d rows from %d partitions (%.2f MB over the wire-side scans)\n",
			sql, resp.Rows, resp.PartitionsScanned, float64(resp.BytesScanned)/1e6)
	}

	// EXPLAIN ANALYZE: force a trace and render the span tree — routing,
	// per-range scatter, per-worker RPCs, and each worker's per-partition
	// scan spans with bytes read/skipped and the encoding mix.
	fmt.Println("\nEXPLAIN ANALYZE SELECT * FROM lineitem WHERE l_quantity >= 30 AND l_quantity <= 35")
	eresp, err := client.Explain(context.Background(),
		"SELECT * FROM lineitem WHERE l_quantity >= 30 AND l_quantity <= 35")
	if err != nil {
		log.Fatal(err)
	}
	trace.WriteTree(os.Stdout, eresp.TraceID, eresp.Spans)

	// Failover demo: kill one worker and re-run a query after opting the
	// client into partial results. Partitions whose primary died are scanned
	// on their replicas; partitions the budget left single-copy are reported
	// as failed instead of sinking the whole query.
	fmt.Printf("\nkilling worker 0 (%s) ...\n", addrs[0])
	fleet[0].Close()
	client.SetAllowPartial(true)
	resp, err := client.Query("SELECT * FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20")
	if err != nil {
		log.Fatal(err)
	}
	snap := reg.Snapshot()
	fmt.Printf("  -> %d rows from %d partitions; %d scans failed over, %d redials, %d breaker trips\n",
		resp.Rows, resp.PartitionsScanned, snap.Counter(dist.MetricFailovers),
		snap.Counter(dist.MetricRedials), snap.Counter(dist.MetricBreakerTrips))
	if resp.Partial {
		fmt.Printf("  -> partial: %d partition(s) had no surviving replica: %v\n",
			len(resp.FailedPartitions), resp.FailedPartitions)
	} else {
		fmt.Println("  -> exact: every lost partition had a replica")
	}
	fmt.Printf("\nquery log captured %d range queries for the next rebuild\n", qlog.Len())

	if *tracesDump != "" {
		df, err := os.Create(*tracesDump)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteJSON(df, tracer); err != nil {
			log.Fatal(err)
		}
		if err := df.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("traces dump (the /traces document) written to %s\n", *tracesDump)
	}

	if *hold {
		fmt.Println("holding cluster open; inspect /metrics, ctrl-C to exit")
		select {}
	}
}
