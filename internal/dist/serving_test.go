package dist

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/serve"
)

var servingStatements = []string{
	"SELECT * FROM t WHERE l_quantity >= 10 AND l_quantity <= 20",
	"SELECT * FROM t WHERE l_shipdate BETWEEN 100 AND 800",
	"SELECT * FROM t WHERE l_quantity <= 5 OR l_quantity >= 45",
	"SELECT * FROM t",
}

// TestDifferentialWireVsInProcess is the acceptance oracle for the wire
// protocol: a query answered over the network (MuxClient → frames → master)
// and the same query answered in-process (Master.QueryContext) on the same
// master must be deeply equal — for clean queries, SQL failures, and partial
// results with a dead worker — and both must match the dataset oracle. The
// client hop may add framing, never meaning.
func TestDifferentialWireVsInProcess(t *testing.T) {
	f := startCluster(t, 3, fastChaosConfig(), nil)
	m, cl := f.master, f.client
	ctx := context.Background()

	for _, sql := range servingStatements {
		wire, werr := cl.Query(sql)
		local, lerr := m.QueryContext(ctx, sql)
		if werr != nil || lerr != nil {
			t.Fatalf("%q: wire err=%v, in-process err=%v", sql, werr, lerr)
		}
		if !reflect.DeepEqual(wire, local) {
			t.Errorf("%q: responses differ:\n  wire:       %+v\n  in-process: %+v", sql, wire, local)
		}
		if want := oracleRows(t, m, f.data, sql); wire.Rows != want {
			t.Errorf("%q: %d rows, dataset oracle says %d", sql, wire.Rows, want)
		}
	}

	// Failure case: an invalid statement must produce the identical error
	// text whether or not it crossed the wire.
	const badSQL = "SELECT * FROM t WHERE nosuchcol >= 1"
	_, werr := cl.Query(badSQL)
	_, lerr := m.QueryContext(ctx, badSQL)
	if werr == nil || lerr == nil {
		t.Fatalf("bad SQL: wire err=%v, in-process err=%v", werr, lerr)
	}
	if werr.Error() != lerr.Error() {
		t.Errorf("error text differs:\n  wire:       %v\n  in-process: %v", werr, lerr)
	}

	// Partial-results case: kill one worker (no replicas); both paths must
	// report the identical surviving aggregate and failed-partition list, and
	// the survivors plus the failed partitions' rows must add up to the
	// dataset. The in-process side takes the serving path's per-request
	// opt-in directly (QueryContext only knows the master-wide default).
	f.workers[1].Close()
	cl.SetAllowPartial(true)
	const sql = "SELECT * FROM t"
	wire, werr := cl.Query(sql)
	local, lerr := m.query(ctx, time.Time{}, localClient, sql, true, false)
	if werr != nil || lerr != nil {
		t.Fatalf("partial: wire err=%v, in-process err=%v", werr, lerr)
	}
	if !wire.Partial || len(wire.FailedPartitions) == 0 {
		t.Fatalf("partial: wire response not partial: %+v", wire)
	}
	if !reflect.DeepEqual(wire, local) {
		t.Errorf("partial responses differ:\n  wire:       %+v\n  in-process: %+v", wire, local)
	}
	lost := 0
	for _, id := range wire.FailedPartitions {
		lost += int(f.layout.Parts[id].FullRows)
	}
	if want := f.data.CountInBox(f.data.Domain(), nil); wire.Rows+lost != want {
		t.Errorf("partial: %d surviving + %d lost rows, dataset oracle says %d", wire.Rows, lost, want)
	}
}

// TestMuxClientConcurrentCorrectness: N goroutine clients multiplexing mixed
// queries over their connections must each get responses deeply equal to
// serial execution, and tearing everything down must return the process to
// its goroutine baseline.
func TestMuxClientConcurrentCorrectness(t *testing.T) {
	base := runtime.NumGoroutine()
	f := startCluster(t, 3, fastChaosConfig(), nil)
	m, addr := f.master, f.maddr

	// Serial ground truth, computed on the master directly.
	want := make(map[string]QueryResponse, len(servingStatements))
	for _, sql := range servingStatements {
		resp, err := m.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = resp
	}

	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	closers := make([]*MuxClient, clients)
	for i := range closers {
		cl, err := DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		closers[i] = cl
	}
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := closers[g]
			for i := 0; i < rounds; i++ {
				sql := servingStatements[(g+i)%len(servingStatements)]
				resp, err := cl.Query(sql)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", g, err)
					return
				}
				if !reflect.DeepEqual(resp, want[sql]) {
					errs <- fmt.Errorf("client %d: %q diverged from serial execution: %+v", g, sql, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Leak check: clients, master and workers down -> goroutine baseline.
	for _, cl := range append(closers, f.client) {
		cl.Close()
	}
	m.Close()
	for _, wk := range f.workers {
		wk.Close()
	}
	checkNoLeak(t, base)
}

// TestResultCacheHitMissInvalidate: repeated SQL hits the result cache, an
// invalidation empties it, and the cached response is identical to the
// recomputed one.
func TestResultCacheHitMissInvalidate(t *testing.T) {
	cfg := fastChaosConfig()
	cfg.ResultCacheSize = 64
	f := startCluster(t, 2, cfg, nil)
	m, reg := f.master, f.reg

	sql := servingStatements[0]
	first, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached response differs: %+v vs %+v", first, second)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricResultCacheHits); got != 1 {
		t.Errorf("result hits = %d, want 1", got)
	}
	if got := snap.Counter(MetricResultCacheMisses); got != 1 {
		t.Errorf("result misses = %d, want 1", got)
	}

	m.InvalidateCaches()
	third, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("response after invalidation differs: %+v vs %+v", first, third)
	}
	snap = reg.Snapshot()
	if got := snap.Counter(MetricResultCacheHits); got != 1 {
		t.Errorf("result hits after invalidation = %d, want 1 (must recompute)", got)
	}
	if got := snap.Counter(MetricCacheInvalidations); got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
}

// TestResultCacheHitAllocs bounds what a result-cache hit allocates on the
// client serving path with a request deadline, as every benchmark client
// request carries: the bound is set only once the cache has missed, so a hit
// builds no context and starts no timer. A context.WithTimeout per request,
// built before the cache lookup, cost four allocations per hit.
func TestResultCacheHitAllocs(t *testing.T) {
	cfg := fastChaosConfig()
	cfg.ResultCacheSize = 64
	m := startCluster(t, 2, cfg, nil).master
	req := QueryRequest{SQL: servingStatements[0], TimeoutMillis: 60_000}
	want := m.handleQueryRequest("client", req)
	if want.Err != "" {
		t.Fatal(want.Err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if got := m.handleQueryRequest("client", req); got.Rows != want.Rows || got.Err != "" {
			t.Fatalf("hit answered %+v, first answer %+v", got, want)
		}
	})
	if allocs > 0 {
		t.Errorf("a result-cache hit allocates %.1f times, want 0", allocs)
	}
}

// TestPartialResultsNotCached: a partial response (dead worker, AllowPartial)
// must never be served from the result cache — each query re-scatters so a
// recovered worker is observed immediately.
func TestPartialResultsNotCached(t *testing.T) {
	cfg := fastChaosConfig()
	cfg.ResultCacheSize = 64
	cfg.AllowPartial = true
	f := startCluster(t, 2, cfg, nil)
	m, reg := f.master, f.reg

	f.workers[0].Close()
	sql := "SELECT * FROM t"
	for i := 0; i < 2; i++ {
		resp, err := m.Query(sql)
		if err != nil {
			t.Fatalf("partial query %d: %v", i, err)
		}
		if !resp.Partial {
			t.Fatalf("query %d not partial: %+v", i, resp)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricResultCacheHits); got != 0 {
		t.Errorf("result hits = %d, want 0 (partials are uncacheable)", got)
	}
	if got := snap.Counter(MetricResultCacheMisses); got != 2 {
		t.Errorf("result misses = %d, want 2", got)
	}
}

// TestWorkerScanSharing: concurrent identical scans on one worker coalesce
// into a single kernel pass whose stats fan out to every waiter.
func TestWorkerScanSharing(t *testing.T) {
	data, l, store := chaosFixture()
	ids := make([]layout.ID, 0, len(l.Parts))
	for _, p := range l.Parts {
		ids = append(ids, p.ID)
	}

	var kernelScans atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	f := startFleet(t, l, data.Names(), store, placement.RoundRobin(l, 1).Replicated(), 1, nil, func(int, layout.ID) {
		if kernelScans.Add(1) == 1 {
			close(started)
			<-release
		}
	})
	reg := f.Regs[0]

	link, err := dialMuxLink(context.Background(), f.Addrs[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	defer link.close()

	req := ScanRequest{Query: data.Domain(), IDs: ids[:1]}
	const concurrent = 8
	var wg sync.WaitGroup
	resps := make([]ScanResponse, concurrent)
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			errs[i] = link.scan(context.Background(), &r, &resps[i])
		}(i)
	}
	<-started
	// Give the remaining requests time to attach to the in-flight scan.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("scan %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(resps[i], resps[0]) {
			t.Fatalf("scan %d diverged: %+v vs %+v", i, resps[i], resps[0])
		}
	}
	if resps[0].Rows == 0 {
		t.Fatal("shared scan returned no rows")
	}
	if got := kernelScans.Load(); got != 1 {
		t.Fatalf("kernel scans = %d, want 1 (the rest must share)", got)
	}
	if got := reg.Snapshot().Counter(MetricWorkerSharedScans); got != concurrent-1 {
		t.Errorf("shared-scan counter = %d, want %d", got, concurrent-1)
	}
}

// TestAdmissionShedsOverWire: with the tier saturated and no queue space,
// a networked client's query is shed with the typed overload error, which
// survives the wire round trip as serve.ErrOverloaded.
func TestAdmissionShedsOverWire(t *testing.T) {
	data, l, store := chaosFixture()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	m := startFleet(t, l, data.Names(), store, placement.RoundRobin(l, 1).Replicated(), 1, nil, func(int, layout.ID) {
		once.Do(func() { close(started) })
		<-release
	}).Master
	cfg := fastChaosConfig()
	cfg.MaxInflightQueries = 1
	m.Configure(cfg)
	m.admission = serve.NewAdmission(1, 0) // no queue: saturate -> shed
	reg := obs.New()
	m.SetMetrics(reg)
	maddr, err := m.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	hogDone := make(chan error, 1)
	go func() {
		_, err := m.Query("SELECT * FROM t")
		hogDone <- err
	}()
	<-started // the hog holds the only slot, blocked in its scan

	cl, err := DialMux(maddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query("SELECT * FROM t WHERE a0 >= 0")
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("saturated query: err=%v, want serve.ErrOverloaded", err)
	}
	if got := reg.Snapshot().Counter(MetricQueriesShed); got < 1 {
		t.Errorf("sheds = %d, want >= 1", got)
	}

	close(release)
	if err := <-hogDone; err != nil {
		t.Fatalf("hog query: %v", err)
	}
	// With the slot free the client is admitted again.
	if _, err := cl.Query("SELECT * FROM t"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}
