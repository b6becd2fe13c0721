package dist

import (
	"context"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/membership"
	"paw/internal/placement"
	"paw/internal/workload"
)

// TestMasterRetriesAfterWorkerRestart: a worker is killed mid-session —
// after the master has established connections — and a replacement is
// started on the same address. The link sees that its connection's read loop
// has ended and redials before the next call, so the query recovers without
// a failed attempt: the telemetry shows the redial, and no retry or breaker
// trip.
func TestMasterRetriesAfterWorkerRestart(t *testing.T) {
	// The test re-issues one SQL statement to drive the stale-connection call
	// path; a result-cache hit would answer without touching the wire and
	// skip the redial under test.
	cfg := DefaultConfig()
	cfg.ResultCacheSize = 0
	tc := startCluster(t, 2, cfg, nil)
	m, reg := tc.master, tc.reg

	const sql = "SELECT * FROM t WHERE l_quantity >= 10 AND l_quantity <= 40"
	first, err := m.Query(sql) // establishes connections to both workers
	if err != nil {
		t.Fatal(err)
	}

	// Kill worker 0 mid-session. Close must terminate the parked session —
	// this would deadlock before workers tracked their connections — and the
	// master must NOT notice until its next call on the stale connection.
	if err := tc.workers[0].Close(); err != nil {
		t.Fatalf("closing worker with a parked master connection: %v", err)
	}
	replacement := NewWorker(tc.store, membership.HostedIDs(m.Placement(), 0)) // a fleet cannot restart a slot on its address
	if _, err := replacement.Start(tc.addrs[0]); err != nil {
		t.Fatalf("restarting worker on %s: %v", tc.addrs[0], err)
	}
	tc.workers[0] = replacement
	waitFor(t, "the master's connection to worker 0 to end", func() bool { return m.slot(0).link.mx.Load().Down() })

	second, err := m.Query(sql)
	if err != nil {
		t.Fatalf("query after worker restart must succeed via redial: %v", err)
	}
	if second.Rows != first.Rows {
		t.Errorf("rows after restart = %d, want %d", second.Rows, first.Rows)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(MetricRedials); got < 1 {
		t.Errorf("redials = %d, want >= 1", got)
	}
	if got := snap.Counter(MetricCallFailures); got != 0 {
		t.Errorf("call failures = %d, want 0 (redial recovered)", got)
	}
	for _, c := range []string{MetricRetries, MetricBreakerTrips} {
		if got := snap.Counter(c); got != 0 {
			t.Errorf("%s = %d, want 0 (the dead connection was never called)", c, got)
		}
	}
	if got := snap.Counter(MetricQueries); got != 2 {
		t.Errorf("queries = %d, want 2", got)
	}

	// A permanently dead worker still fails: the redial cannot connect.
	tc.workers[0].Close()
	if _, err := m.Query(sql); err == nil {
		t.Fatal("query over a dead worker must still error after one retry")
	}
	if got := reg.Snapshot().Counter(MetricCallFailures); got < 1 {
		t.Errorf("call failures after dead worker = %d, want >= 1", got)
	}
}

// TestAdminCallBacksOffBetweenAttempts: an admin call against a closed worker
// makes maxAttempts attempts and backs off between them only, not after the
// last one, which no attempt follows.
func TestAdminCallBacksOffBetweenAttempts(t *testing.T) {
	tc := startCluster(t, 2, DefaultConfig(), nil)
	clk := newFakeClock()
	tc.master.clock = clk
	tc.workers[0].Close()
	if _, err := tc.master.adminCallResp(context.Background(), 0, AdminRequest{Op: AdminFetch}); err == nil {
		t.Fatal("a fetch from a closed worker succeeded")
	}
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if clk.instants != maxAttempts-1 {
		t.Fatalf("%d backoffs armed, want %d", clk.instants, maxAttempts-1)
	}
}

// TestWorkerMetricsCountScans: the worker-side counters reflect served scans
// and the active-connection gauge tracks session lifecycle.
func TestWorkerMetricsCountScans(t *testing.T) {
	data := dataset.Uniform(2000, 2, 9)
	rows := make([]int, 2000)
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(10, 11))
	l := core.Build(data, rows, data.Domain(), hist, core.Params{MinRows: 100})
	store := blockstore.Materialize(l, data, blockstore.Config{})
	rep := placement.LeafRuns(l, 1, 1)
	f := startFleet(t, l, data.Names(), store, rep, 1, nil, nil)

	resp := scanWorker(t, f.Addrs[0], ScanRequest{Query: data.Domain(), IDs: membership.HostedIDs(rep, 0)})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}

	snap := f.Regs[0].Snapshot()
	if got := snap.Counter(MetricWorkerScans); got != 1 {
		t.Errorf("scans = %d, want 1", got)
	}
	if got := snap.Counter(MetricWorkerRows); got != int64(resp.Rows) {
		t.Errorf("rows = %d, want %d", got, resp.Rows)
	}
	if got := snap.Counter(MetricWorkerBytesRead); got != resp.BytesRead {
		t.Errorf("bytes read = %d, want %d", got, resp.BytesRead)
	}
	if got := snap.Gauge(MetricWorkerConns); got != 1 {
		t.Errorf("active connections = %d, want 1", got)
	}
}
