package dist

import (
	"testing"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/workload"
)

// TestMasterRetriesAfterWorkerRestart is the regression test for the bounded
// retry in Master.Query: a worker is killed mid-session — after the master
// has established connections — and a replacement is started on the same
// address. The master's stale connection fails on the next call; the single
// redial must recover the query transparently, and the telemetry must show
// the redial happened.
func TestMasterRetriesAfterWorkerRestart(t *testing.T) {
	data := dataset.TPCHLike(20000, 1)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(25, 2))
	l := core.Build(data, data.Sample(2000, 3), dom, hist, core.Params{MinRows: 5})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})

	const nWorkers = 2
	place := placement.RoundRobin(l, nWorkers)
	perWorker := make([][]layout.ID, nWorkers)
	for id, w := range place {
		perWorker[w] = append(perWorker[w], id)
	}
	workers := make([]*Worker, nWorkers)
	addrs := make([]string, nWorkers)
	for w := range workers {
		workers[w] = NewWorker(store, perWorker[w])
		addr, err := workers[w].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[w] = addr
	}
	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(rm, addrs, place)
	if err != nil {
		t.Fatal(err)
	}
	// The test re-issues one SQL statement to drive the stale-connection call
	// path; a result-cache hit would answer without touching the wire and
	// skip the redial under test.
	cfg := DefaultConfig()
	cfg.ResultCacheSize = 0
	m.Configure(cfg)
	reg := obs.New()
	m.SetMetrics(reg)
	defer m.Close()
	defer func() {
		for _, wk := range workers {
			wk.Close()
		}
	}()

	const sql = "SELECT * FROM t WHERE l_quantity >= 10 AND l_quantity <= 40"
	first, err := m.Query(sql) // establishes connections to both workers
	if err != nil {
		t.Fatal(err)
	}

	// Kill worker 0 mid-session. Close must terminate the parked session —
	// this would deadlock before workers tracked their connections — and the
	// master must NOT notice until its next call on the stale connection.
	if err := workers[0].Close(); err != nil {
		t.Fatalf("closing worker with a parked master connection: %v", err)
	}
	replacement := NewWorker(store, perWorker[0])
	if _, err := replacement.Start(addrs[0]); err != nil {
		t.Fatalf("restarting worker on %s: %v", addrs[0], err)
	}
	workers[0] = replacement

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
	if got := snap.Counter(MetricQueries); got != 2 {
		t.Errorf("queries = %d, want 2", got)
	}

	// A permanently dead worker still fails: the redial cannot connect.
	workers[0].Close()
	if _, err := m.Query(sql); err == nil {
		t.Fatal("query over a dead worker must still error after one retry")
	}
	if got := reg.Snapshot().Counter(MetricCallFailures); got < 1 {
		t.Errorf("call failures after dead worker = %d, want >= 1", got)
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

	ids := make([]layout.ID, 0, l.NumPartitions())
	for _, p := range l.Parts {
		ids = append(ids, p.ID)
	}
	wk := NewWorker(store, ids)
	reg := obs.New()
	wk.SetMetrics(reg)
	addr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()

	resp := scanWorker(t, addr, ScanRequest{Query: data.Domain(), IDs: ids})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}

	snap := reg.Snapshot()
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
