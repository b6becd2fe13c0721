package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/faultnet"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/serve"
	"paw/internal/sqlrew"
	"paw/internal/trace"
	"paw/internal/workload"
)

// testCluster spins up workers + master + client over loopback TCP.
type testCluster struct {
	data    *dataset.Dataset
	layout  *layout.Layout
	store   *blockstore.Store
	workers []*Worker
	addrs   []string
	master  *Master
	maddr   string
	client  *MuxClient
	// reg is the master's registry, workerRegs[w] worker w's.
	reg        *obs.Registry
	workerRegs []*obs.Registry
}

// startCluster serves a small TPC-H layout on nWorkers workers, placed
// in leaf runs, behind a master configured with cfg and tracer, and dials a
// client to it.
func startCluster(t *testing.T, nWorkers int, cfg Config, tracer *trace.Tracer) *testCluster {
	t.Helper()
	data := dataset.TPCHLike(20000, 1)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(25, 2))
	sample := data.Sample(2000, 3)
	l := core.Build(data, sample, dom, hist, core.Params{MinRows: 5, Delta: 0})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})
	f := startFleet(t, l, data.Names(), store, placement.LeafRuns(l, nWorkers, 1), nWorkers, nil, nil)
	tc := &testCluster{data: data, layout: l, store: store, workers: f.Workers, addrs: f.Addrs,
		master: f.Master, reg: obs.New(), workerRegs: f.Regs}
	f.Master.Configure(cfg)
	f.Master.SetMetrics(tc.reg)
	f.Master.SetTracer(tracer)
	var err error
	if tc.maddr, err = f.Master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if tc.client, err = DialMux(tc.maddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.client.Close() })
	return tc
}

// startFleet is StartFleet for a test: worker w serves behind scripts[w]
// when there is one, and scanHook, if set, sees worker w's kernel scans.
// The fleet closes when the test ends.
func startFleet(t *testing.T, l *layout.Layout, names []string, store *blockstore.Store, rep placement.Replicated, slots int,
	scripts map[int]faultnet.Script, scanHook func(w int, id layout.ID)) *Fleet {
	t.Helper()
	f, err := StartFleet(l, names, store, rep, slots, func(w int, wk *Worker, ln net.Listener) net.Listener {
		if scanHook != nil {
			wk.scanHook = func(id layout.ID) { scanHook(w, id) }
		}
		if s, ok := scripts[w]; ok {
			return faultnet.Wrap(ln, s)
		}
		return ln
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// scanWorker sends one ScanRequest straight to a worker, bypassing the
// master, over a connection of its own that stays open until the test ends.
// The request's Deadline goes to the worker only: the call itself waits
// unbounded, so a deadline already past reaches the worker instead of being
// refused by the link.
func scanWorker(t *testing.T, addr string, req ScanRequest) ScanResponse {
	t.Helper()
	mx, err := serve.DialMux(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mx.Close() })
	var resp ScanResponse
	if err := roundTrip(context.Background(), time.Time{}, mx, msgScanReq, &req, msgScanResp, resp.UnmarshalWire); err != nil {
		t.Fatal(err)
	}
	return resp
}

// oracleRows is the dataset oracle for sql: the rewritten ranges are disjoint,
// so the expected row count is the sum of their dataset.CountInBox counts.
func oracleRows(t *testing.T, m *Master, data *dataset.Dataset, sql string) int {
	t.Helper()
	plan, err := m.Router().RouteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, rp := range plan.Ranges {
		want += data.CountInBox(rp.Range, nil)
	}
	return want
}

func TestDistributedQueryCorrectness(t *testing.T) {
	tc := startCluster(t, 4, DefaultConfig(), nil)
	statements := []struct {
		sql   string
		where string
	}{
		{"SELECT * FROM t WHERE l_quantity >= 10 AND l_quantity <= 20", ""},
		{"SELECT * FROM t WHERE l_shipdate BETWEEN 100 AND 800", ""},
		{"SELECT * FROM t WHERE l_quantity <= 5 OR l_quantity >= 45", ""},
	}
	for _, s := range statements {
		resp, err := tc.client.Query(s.sql)
		if err != nil {
			t.Fatalf("%q: %v", s.sql, err)
		}
		if want := oracleRows(t, tc.master, tc.data, s.sql); resp.Rows != want {
			t.Errorf("%q: %d rows over the wire, want %d", s.sql, resp.Rows, want)
		}
		if resp.PartitionsScanned == 0 || resp.BytesScanned == 0 {
			t.Errorf("%q: empty stats %+v", s.sql, resp)
		}
	}
}

func TestDistributedConcurrentClients(t *testing.T) {
	tc := startCluster(t, 3, DefaultConfig(), nil)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := tc.client.Query("SELECT * FROM t WHERE l_quantity >= 25 AND l_quantity <= 30"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDistributedSQLErrorPropagates(t *testing.T) {
	tc := startCluster(t, 2, DefaultConfig(), nil)
	if _, err := tc.client.Query("SELECT * FROM t WHERE nosuchcol >= 1"); err == nil {
		t.Fatal("unknown column must error over the wire")
	} else if !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The connection stays usable after an error.
	if _, err := tc.client.Query("SELECT * FROM t WHERE l_quantity >= 49"); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestWorkerRejectsForeignPartition(t *testing.T) {
	data := dataset.Uniform(1000, 2, 4)
	rows := make([]int, 1000)
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(5, 5))
	l := core.Build(data, rows, data.Domain(), hist, core.Params{MinRows: 100})
	store := blockstore.Materialize(l, data, blockstore.Config{})
	if l.NumPartitions() < 2 {
		t.Skip("need at least 2 partitions")
	}
	wk := NewWorker(store, []layout.ID{l.Parts[0].ID}) // a partial placement, which a fleet's master refuses
	addr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	resp := scanWorker(t, addr, ScanRequest{Query: data.Domain(), IDs: []layout.ID{l.Parts[1].ID}})
	if resp.Err == "" {
		t.Fatal("foreign partition must be rejected")
	}
}

func TestMasterValidatesPlacement(t *testing.T) {
	data := dataset.Uniform(500, 2, 6)
	rows := make([]int, 500)
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(5, 7))
	l := core.Build(data, rows, data.Domain(), hist, core.Params{MinRows: 50})
	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	// Missing placement.
	if _, err := NewMaster(rm, []string{"x"}, map[layout.ID]int{}); err == nil {
		t.Error("missing placement must error")
	}
	// Invalid worker index.
	bad := map[layout.ID]int{}
	for _, p := range l.Parts {
		bad[p.ID] = 5
	}
	if _, err := NewMaster(rm, []string{"x"}, bad); err == nil {
		t.Error("invalid worker index must error")
	}
}

func TestMasterWorkerDown(t *testing.T) {
	tc := startCluster(t, 2, DefaultConfig(), nil)
	// Kill one worker; queries touching its partitions must fail cleanly.
	tc.workers[0].Close()
	_, err := tc.client.Query("SELECT * FROM t") // full scan touches everything
	if err == nil {
		t.Fatal("query over a dead worker must error")
	}
}

// TestQueryCaseChangingRunesNeverPanic: a statement is client input, and a
// rune whose upper case has another byte length used to move the WHERE offset
// off the statement — a slice panic on a handler goroutine, the whole master
// gone from one frame. Such statements get their rows or an error.
func TestQueryCaseChangingRunesNeverPanic(t *testing.T) {
	tc := startCluster(t, 2, DefaultConfig(), nil)
	for sql, like := range map[string]string{
		"ɐɐɐɐɐɐɐɐ WHERE":                              "SELECT * FROM t",
		"SELECT ıſıſıſ FROM t WHERE l_quantity >= 45": "SELECT * FROM t WHERE l_quantity >= 45",
	} {
		resp, err := tc.client.Query(sql)
		if err != nil {
			t.Errorf("%q: %v", sql, err)
			continue
		}
		if want := oracleRows(t, tc.master, tc.data, like); resp.Rows != want {
			t.Errorf("%q: %d rows, want %d (those of %q)", sql, resp.Rows, want, like)
		}
	}
	if _, err := tc.client.Query("SELECT * FROM t WHERE NOT l_quantity == 5"); err == nil {
		t.Error("== under NOT must be an error")
	}
}

// TestQueryRewriterCapsKeepMasterServing: neither the nesting depth nor the
// normal form's size of a statement is bounded by its length, and uncapped the
// second of these (a 4 MB frame, under serve.MaxPayload) overflowed the stack —
// fatal, the whole master — while the first (472 bytes) held a core for 21 s.
// Both are refused with the rewriter's typed error, over the wire too, and
// the master answers the next query.
func TestQueryRewriterCapsKeepMasterServing(t *testing.T) {
	tc := startCluster(t, 2, DefaultConfig(), nil)
	var ne strings.Builder
	ne.WriteString("SELECT * FROM t WHERE l_quantity >= 0")
	for _, col := range tc.data.Names()[:4] {
		for v := 1; v <= 10; v++ {
			fmt.Fprintf(&ne, " AND %s <> %d", col, v)
		}
	}
	const depth = 2_000_000
	parens := "SELECT * FROM t WHERE " + strings.Repeat("(", depth) + "l_quantity >= 0" + strings.Repeat(")", depth)
	const next = "SELECT * FROM t WHERE l_quantity >= 45"
	want := oracleRows(t, tc.master, tc.data, next)
	for name, sql := range map[string]string{"normal form": ne.String(), "depth": parens} {
		start := time.Now()
		_, err := tc.master.Query(sql)
		var lim *sqlrew.LimitError
		if !errors.As(err, &lim) {
			t.Errorf("%s: got %v, want a *sqlrew.LimitError", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refused after %v", name, d)
		}
		if _, err := tc.client.Query(sql); err == nil || !strings.Contains(err.Error(), "too complex") {
			t.Errorf("%s over the wire: got %v, want the rewriter's refusal", name, err)
		}
		if resp, err := tc.client.Query(next); err != nil || resp.Rows != want {
			t.Errorf("after %s: %d rows, %v; want %d", name, resp.Rows, err, want)
		}
	}
}
