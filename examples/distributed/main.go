// Distributed mode: spins up the Fig. 4 architecture as real TCP servers —
// four workers hosting partitions of a PAW layout, a master owning the
// routing metadata, and a SQL client — all in one process over loopback.
//
// Partitions are placed on the consistent-hash ring with two copies each, as
// pawmaster places them. The demo kills a worker mid-run and
// sends a new statement that reads some of its partitions: the master must
// fail those scans over to the surviving copies and answer exactly, or the
// demo exits non-zero.
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
	"paw/internal/membership"
	"paw/internal/obs"
	"paw/internal/trace"
)

func main() {
	metrics := flag.String("metrics", "", "serve /metrics, /traces, /healthz, /readyz and /debug/pprof on this address (e.g. :9090); empty disables")
	hold := flag.Bool("hold", false, "keep the cluster running after the demo queries (ctrl-C to exit)")
	traceOut := flag.String("trace-out", "", "write the per-query JSONL cost records to this file")
	tracesDump := flag.String("traces-dump", "", "after the demo, write the /traces JSON document (recent traces + exemplars) to this file")
	flag.Parse()

	const workers, replicas = 4, 2
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

	// Ring placement with two copies: the second copy is what the master
	// fails over to when a worker dies.
	rep := membership.StaticPlacement(l, workers, replicas)
	fleet, err := dist.StartFleet(l, data.Names(), store, rep, workers, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	m, rm := fleet.Master, fleet.Master.Router()
	for w, addr := range fleet.Addrs {
		fmt.Printf("worker %d: %d partitions on %s\n", w, len(membership.HostedIDs(rep, w)), addr)
	}
	fmt.Printf("placement: consistent-hash ring, %d copies of each of %d partitions\n", replicas, len(l.Parts))

	cfg := dist.DefaultConfig()
	cfg.CallTimeout = 2 * time.Second
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

	// Failover demo: kill worker 0, then send a statement not asked before
	// (an earlier one would be answered from the master's result cache
	// without a scan) that reads partitions worker 0 is first in line for.
	// The client accepts partial results, so a partition left without a
	// copy would come back in FailedPartitions rather than as an error.
	const failoverSQL = "SELECT * FROM lineitem WHERE l_quantity >= 2 AND l_quantity <= 48"
	fmt.Printf("\nkilling worker 0 (%s), then %s\n", fleet.Addrs[0], failoverSQL)
	fleet.Workers[0].Close()
	client.SetAllowPartial(true)
	resp, err := client.Query(failoverSQL)
	if err != nil {
		log.Fatal(err)
	}
	snap := reg.Snapshot()
	failovers := snap.Counter(dist.MetricFailovers)
	fmt.Printf("  -> %d rows from %d partitions; %d scans failed over, %d redials, %d breaker trips\n",
		resp.Rows, resp.PartitionsScanned, failovers,
		snap.Counter(dist.MetricRedials), snap.Counter(dist.MetricBreakerTrips))
	switch {
	case resp.Partial:
		log.Fatalf("partial answer: %d partition(s) had no surviving copy: %v",
			len(resp.FailedPartitions), resp.FailedPartitions)
	case failovers == 0:
		log.Fatal("no scan failed over: the statement read no partition worker 0 was first in line for")
	}
	fmt.Println("  -> exact: every partition of worker 0 was read from its second copy")

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
