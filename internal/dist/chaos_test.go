package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/faultnet"
	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/workload"
)

// The chaos suite drives the distributed path through the faultnet
// fault-injection layer under a fixed seed matrix and proves each failure
// mode maps to its intended recovery:
//
//	reset / corrupt / slow call  -> bounded retry with backoff
//	dead primary, live replica   -> failover
//	dead worker, repeated calls  -> breaker trip, then recovery probe
//	black-holed worker           -> deadline expiry, no goroutine leak
//	dead worker, no replica      -> partial results (opt-in)
//
// Every script is counter-driven, so a given seed reproduces the same fault
// sequence on every run.

// chaosSeeds is the fixed seed matrix shared by `make chaos` scenarios: the
// seeds feed both the faultnet scripts (corruption positions) and the
// master's backoff jitter.
var chaosSeeds = []int64{1, 2, 3}

type chaosCluster struct {
	data    *dataset.Dataset
	layout  *layout.Layout
	store   *blockstore.Store
	rep     placement.Replicated
	workers []*Worker
	// workerRegs holds one registry per worker, attached before Serve
	// (SetMetrics is not safe on a serving node).
	workerRegs []*obs.Registry
	addrs      []string
	master     *Master
	reg        *obs.Registry
}

// startChaosCluster builds a small layout, replicates every partition across
// `replicas` workers (replica r of partition p on worker (p+r) mod W), and
// serves each worker behind the faultnet script given for its index (absent:
// clean listener). The master is configured with cfg and an obs registry.
func startChaosCluster(t *testing.T, nWorkers, replicas int, scripts map[int]faultnet.Script, cfg Config) *chaosCluster {
	t.Helper()
	data, l, store := chaosFixture()
	rep := make(placement.Replicated, len(l.Parts))
	for _, p := range l.Parts {
		for r := 0; r < replicas && r < nWorkers; r++ {
			rep[p.ID] = append(rep[p.ID], (int(p.ID)+r)%nWorkers)
		}
	}
	f := startFleet(t, l, data.Names(), store, rep, nWorkers, scripts, nil)
	tc := &chaosCluster{data: data, layout: l, store: store, rep: rep,
		workers: f.Workers, workerRegs: f.Regs, addrs: f.Addrs, master: f.Master, reg: obs.New()}
	f.Master.Configure(cfg)
	f.Master.SetMetrics(tc.reg)
	return tc
}

// chaosFixture is the chaos suite's data: 6 000 uniform 2-d rows, a layout
// built for a uniform workload over them, and its store.
func chaosFixture() (*dataset.Dataset, *layout.Layout, *blockstore.Store) {
	data := dataset.Uniform(6000, 2, 3)
	rows := make([]int, data.NumRows())
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(10, 5))
	l := core.Build(data, rows, data.Domain(), hist, core.Params{MinRows: 300})
	return data, l, blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})
}

// fastChaosConfig is the test policy: a 3-failure breaker and short
// timeouts.
func fastChaosConfig() Config {
	return Config{
		Retry:        RetryPolicy{BreakerThreshold: 3},
		CallTimeout:  2 * time.Second,
		QueryTimeout: 10 * time.Second,
	}
}

const chaosSQL = "SELECT * FROM t" // full scan: touches every partition

// TestChaosRetryRecoversFromReset: the first connection to the worker is
// reset mid-exchange; the bounded retry must redial and recover the query
// with no user-visible failure, under every seed of the matrix.
func TestChaosRetryRecoversFromReset(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := startChaosCluster(t, 1, 1, map[int]faultnet.Script{
				0: {Seed: seed, Rules: []faultnet.Rule{
					{Conn: 0, Op: faultnet.OnRead, Call: 0, Action: faultnet.Reset},
				}},
			}, fastChaosConfig())
			resp, err := tc.master.Query(chaosSQL)
			if err != nil {
				t.Fatalf("seed %d: query must survive a connection reset: %v", seed, err)
			}
			if resp.Rows != tc.data.NumRows() {
				t.Errorf("seed %d: rows = %d, want %d", seed, resp.Rows, tc.data.NumRows())
			}
			if resp.Partial {
				t.Error("recovered query must not be partial")
			}
			snap := tc.reg.Snapshot()
			if got := snap.Counter(MetricRetries); got < 1 {
				t.Errorf("seed %d: retries = %d, want >= 1", seed, got)
			}
			if got := snap.Counter(MetricCallFailures); got != 0 {
				t.Errorf("seed %d: call failures = %d, want 0 (retry recovered)", seed, got)
			}
		})
	}
}

// TestChaosCorruptResponseTriggersRetry: the worker's first response is
// byte-corrupted on the wire (seeded positions); the master's decode error
// must be treated like any transport failure — drop, redial, resend.
func TestChaosCorruptResponseTriggersRetry(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := startChaosCluster(t, 1, 1, map[int]faultnet.Script{
				0: {Seed: seed, Rules: []faultnet.Rule{
					{Conn: 0, Op: faultnet.OnWrite, Call: 0, Action: faultnet.Corrupt, Bytes: 16},
				}},
			}, fastChaosConfig())
			resp, err := tc.master.Query(chaosSQL)
			if err != nil {
				t.Fatalf("seed %d: query must survive a corrupted response: %v", seed, err)
			}
			if resp.Rows != tc.data.NumRows() {
				t.Errorf("seed %d: rows = %d, want %d", seed, resp.Rows, tc.data.NumRows())
			}
			if got := tc.reg.Snapshot().Counter(MetricRetries); got < 1 {
				t.Errorf("seed %d: retries = %d, want >= 1", seed, got)
			}
		})
	}
}

// TestChaosSlowCallRetried: the worker sits on the first request longer than
// the per-call timeout; the call must expire, the link that stopped
// answering be dropped, the retry succeed on a fresh one — while the
// second, clean query proves the path is healthy again.
func TestChaosSlowCallRetried(t *testing.T) {
	cfg := fastChaosConfig()
	cfg.CallTimeout = 150 * time.Millisecond
	tc := startChaosCluster(t, 1, 1, map[int]faultnet.Script{
		0: {Seed: 1, Rules: []faultnet.Rule{
			{Conn: 0, Op: faultnet.OnRead, Call: 0, Action: faultnet.Delay, Duration: 2 * time.Second},
		}},
	}, cfg)
	start := time.Now()
	resp, err := tc.master.Query(chaosSQL)
	if err != nil {
		t.Fatalf("query must survive one slow connection: %v", err)
	}
	if resp.Rows != tc.data.NumRows() {
		t.Errorf("rows = %d, want %d", resp.Rows, tc.data.NumRows())
	}
	if d := time.Since(start); d < cfg.CallTimeout {
		t.Errorf("query finished in %v, before the %v call timeout could have fired", d, cfg.CallTimeout)
	}
	if got := tc.reg.Snapshot().Counter(MetricRetries); got < 1 {
		t.Errorf("retries = %d, want >= 1", got)
	}
	if _, err := tc.master.Query(chaosSQL); err != nil {
		t.Fatalf("second query on the recovered connection: %v", err)
	}
}

// TestChaosFailoverToReplica: every partition is replicated on both workers;
// killing the primary of half the partitions must redirect their scans to
// the surviving replica with the full row count intact.
func TestChaosFailoverToReplica(t *testing.T) {
	tc := startChaosCluster(t, 2, 2, nil, fastChaosConfig())
	healthy, err := tc.master.Query(chaosSQL)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := tc.master.Query(chaosSQL)
	if err != nil {
		t.Fatalf("query must fail over to the live replica: %v", err)
	}
	if resp.Rows != healthy.Rows {
		t.Errorf("rows after failover = %d, want %d", resp.Rows, healthy.Rows)
	}
	if resp.Partial || len(resp.FailedPartitions) != 0 {
		t.Errorf("failover must be complete, got partial=%v failed=%v", resp.Partial, resp.FailedPartitions)
	}
	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricFailovers); got < 1 {
		t.Errorf("failovers = %d, want >= 1", got)
	}
}

// TestChaosBreakerTripAndProbe: repeated failures against a dead worker trip
// its breaker (short-circuiting further dials); once the master's clock
// passes the cooldown, a probe against the restarted worker closes it again.
func TestChaosBreakerTripAndProbe(t *testing.T) {
	cfg := fastChaosConfig()
	cfg.Retry.BreakerThreshold = 2
	tc := startChaosCluster(t, 1, 1, nil, cfg)
	clk := newFakeClock()
	tc.master.clock = clk
	if _, err := tc.master.Query(chaosSQL); err != nil {
		t.Fatal(err)
	}
	hosted := membership.HostedIDs(tc.rep, 0)
	tc.workers[0].Close()

	// Two consecutive failures trip the breaker...
	for i := 0; i < cfg.Retry.BreakerThreshold; i++ {
		if _, err := tc.master.Query(chaosSQL); err == nil {
			t.Fatal("query over a dead worker must error")
		}
	}
	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricBreakerTrips); got < 1 {
		t.Fatalf("breaker trips = %d, want >= 1", got)
	}
	// ...and the next query short-circuits without touching the network.
	if _, err := tc.master.Query(chaosSQL); err == nil {
		t.Fatal("short-circuited query must error")
	}
	if got := tc.reg.Snapshot().Counter(MetricBreakerShorts); got < 1 {
		t.Fatalf("breaker short-circuits = %d, want >= 1", got)
	}

	// Restart the worker on the same address and pass the cooldown: the
	// probe must succeed and close the breaker.
	replacement := NewWorker(tc.store, hosted) // a fleet cannot restart a slot on its address
	var started bool
	for i := 0; i < 50; i++ { // the freed port can take a moment to rebind
		if _, err := replacement.Start(tc.addrs[0]); err == nil {
			started = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !started {
		t.Fatalf("could not restart worker on %s", tc.addrs[0])
	}
	defer replacement.Close()
	tc.workers[0] = replacement
	if _, err := tc.master.Query(chaosSQL); err == nil {
		t.Fatal("a query inside the cooldown must short-circuit")
	}
	clk.Advance(breakerCooldown)
	resp, err := tc.master.Query(chaosSQL)
	if err != nil {
		t.Fatalf("probe after cooldown must recover the worker: %v", err)
	}
	if resp.Rows != tc.data.NumRows() {
		t.Errorf("rows after recovery = %d, want %d", resp.Rows, tc.data.NumRows())
	}
	snap = tc.reg.Snapshot()
	if got := snap.Counter(MetricBreakerProbes); got < 1 {
		t.Errorf("breaker probes = %d, want >= 1", got)
	}
	// The breaker is closed again: another query goes straight through.
	if _, err := tc.master.Query(chaosSQL); err != nil {
		t.Fatalf("query after breaker recovery: %v", err)
	}
}

// TestChaosDeadlineExpiryNoLeak: a black-holed worker accepts requests and
// never answers; the query deadline must expire cleanly, the error must be
// context.DeadlineExceeded, and tearing the cluster down must return the
// process to its goroutine baseline — a hung worker can neither wedge a
// query nor strand its scatter goroutines.
func TestChaosDeadlineExpiryNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := fastChaosConfig()
	cfg.QueryTimeout = 0 // the caller's context is the only bound
	tc := startChaosCluster(t, 1, 1, map[int]faultnet.Script{
		0: {Seed: 1, Rules: []faultnet.Rule{
			{Conn: -1, Op: faultnet.OnRead, Call: 0, Action: faultnet.Blackhole},
		}},
	}, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tc.master.QueryContext(ctx, chaosSQL)
	if err == nil {
		t.Fatal("query against a black-holed worker must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline expiry took %v — the hung worker wedged the query", d)
	}
	if got := tc.reg.Snapshot().Counter(MetricDeadlineExpired); got < 1 {
		t.Errorf("deadline expiries = %d, want >= 1", got)
	}
	// Full teardown must release every goroutine the query and the cluster
	// spawned (the worker's parked sessions included).
	tc.master.Close()
	for _, wk := range tc.workers {
		wk.Close()
	}
	checkNoLeak(t, base)
}

// checkNoLeak fails t unless the goroutine count falls back to base, give
// or take two, within five seconds.
func checkNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosPartialResults: no replicas, one worker dead. A default client
// gets an error; once it opts into partial results it gets the surviving
// partitions plus the failed-ID list.
func TestChaosPartialResults(t *testing.T) {
	tc := startChaosCluster(t, 2, 1, nil, fastChaosConfig())
	maddr, err := tc.master.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := tc.master.Query(chaosSQL)
	if err != nil {
		t.Fatal(err)
	}
	tc.workers[1].Close()

	cl, err := DialMux(maddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(chaosSQL); err == nil {
		t.Fatal("default client must see the failure")
	}

	cl.SetAllowPartial(true)
	resp, err := cl.Query(chaosSQL)
	if err != nil {
		t.Fatalf("partial-mode query must succeed: %v", err)
	}
	if !resp.Partial {
		t.Fatal("response must be marked partial")
	}
	if len(resp.FailedPartitions) == 0 {
		t.Fatal("failed partitions must be reported")
	}
	for _, id := range resp.FailedPartitions {
		if tc.rep[id][0] != 1 {
			t.Errorf("partition %d reported failed but lives on the surviving worker", id)
		}
	}
	if resp.Rows <= 0 || resp.Rows >= healthy.Rows {
		t.Errorf("partial rows = %d, want in (0, %d)", resp.Rows, healthy.Rows)
	}
	if got := resp.PartitionsScanned + len(resp.FailedPartitions); got != healthy.PartitionsScanned {
		t.Errorf("scanned %d + failed %d != total %d",
			resp.PartitionsScanned, len(resp.FailedPartitions), healthy.PartitionsScanned)
	}
	if got := tc.reg.Snapshot().Counter(MetricPartialResults); got < 1 {
		t.Errorf("partial results counter = %d, want >= 1", got)
	}
}

// TestChaosWorkerDeadlineDrop: a request shipped with an already-expired
// wire deadline must be dropped by the worker (counted, partition named)
// rather than scanned.
func TestChaosWorkerDeadlineDrop(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	reg := tc.workerRegs[0]
	ids := membership.HostedIDs(tc.rep, 0)
	resp := scanWorker(t, tc.addrs[0], ScanRequest{
		Query:    tc.data.Domain(),
		IDs:      ids,
		Deadline: time.Now().Add(-time.Second).UnixNano(),
	})
	if resp.Err == "" {
		t.Fatal("expired deadline must fail the scan")
	}
	if resp.FailedPartition != int64(ids[0]) {
		t.Errorf("failed partition = %d, want %d", resp.FailedPartition, ids[0])
	}
	if resp.Rows != 0 {
		t.Errorf("rows = %d, want 0 (nothing scanned)", resp.Rows)
	}
	if got := reg.Snapshot().Counter(MetricWorkerDeadlineDrops); got < 1 {
		t.Errorf("deadline drops = %d, want >= 1", got)
	}
}

// TestChaosPartialBatchStatsFlushed: a batch that fails on a foreign
// partition after scanning real ones must still flush the earlier
// partitions' telemetry and name the failing partition.
func TestChaosPartialBatchStatsFlushed(t *testing.T) {
	tc := startChaosCluster(t, 2, 1, nil, fastChaosConfig())
	reg := tc.workerRegs[0]
	mine := membership.HostedIDs(tc.rep, 0)
	var foreign layout.ID = -1
	for _, p := range tc.layout.Parts {
		if tc.rep[p.ID][0] != 0 {
			foreign = p.ID
			break
		}
	}
	if foreign < 0 || len(mine) == 0 {
		t.Skip("need both hosted and foreign partitions")
	}
	batch := append(append([]layout.ID(nil), mine...), foreign)
	resp := scanWorker(t, tc.addrs[0], ScanRequest{Query: tc.data.Domain(), IDs: batch})
	if resp.Err == "" {
		t.Fatal("foreign partition must fail the batch")
	}
	if resp.FailedPartition != int64(foreign) {
		t.Errorf("failed partition = %d, want %d", resp.FailedPartition, foreign)
	}
	if resp.Rows == 0 {
		t.Error("partial-batch response must keep the rows scanned before the failure")
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricWorkerRows); got != int64(resp.Rows) {
		t.Errorf("flushed rows = %d, want %d", got, resp.Rows)
	}
	if got := snap.Counter(MetricWorkerBytesRead); got != resp.BytesRead {
		t.Errorf("flushed bytes = %d, want %d", got, resp.BytesRead)
	}
}
