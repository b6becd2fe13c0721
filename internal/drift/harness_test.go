package drift

import (
	"sync"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/layout"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/workload"
)

// The test scenario used throughout this package: uniform 2-d data over the
// unit square, a historical workload confined to the left part, so the
// built layout is fine on the left and coarse on the right — and a drifted
// query cluster of small boxes on the right regresses observed cost until
// the controller rebuilds that region.

func unitData(t testing.TB, rows int, seed int64) *dataset.Dataset {
	t.Helper()
	return dataset.Uniform(rows, 2, seed)
}

// testDelta is the δ every test layout is built with, and so the scope its
// drift monitor holds the live window to.
const testDelta = 0.02

// buildLeftLayout builds (and routes) a layout for the left-weighted
// reference workload; the layout carries hist and testDelta as its scope.
func buildLeftLayout(t testing.TB, data *dataset.Dataset, hist workload.Workload) *layout.Layout {
	t.Helper()
	sample := data.Sample(1500, 13)
	l, err := core.BuildMethod(core.MethodPAW, data, sample, data.Domain(), hist, core.Params{MinRows: 20, Delta: testDelta})
	if err != nil {
		t.Fatal(err)
	}
	l.Route(data)
	return l
}

// driftCluster is a live cluster plus the drift controller under test.
type driftCluster struct {
	data    *dataset.Dataset
	hist    workload.Workload
	layout  *layout.Layout // the layout the cluster started with (epoch 0)
	oracle  *router.Master // static router over the epoch-0 layout (row oracle)
	workers []*dist.Worker
	master  *dist.Master
	ctl     *Controller

	// oracleMu/oracleRowsBySQL memoize the row oracle per statement: the
	// differential load loops over few distinct statements, and a linear
	// count per served query would dominate the test's runtime.
	oracleMu        sync.Mutex
	oracleRowsBySQL map[string]int
}

// storeConfig is how every test cluster's block store is materialised.
var storeConfig = blockstore.Config{GroupRows: 256}

// startDriftCluster spins up workers + master over loopback TCP on the
// left-weighted scenario and attaches a drift controller (manual trigger).
func startDriftCluster(t testing.TB, rows, nWorkers int, cfg Config) *driftCluster {
	t.Helper()
	return startPlacedDriftCluster(t, rows, nWorkers, cfg, func(l *layout.Layout) placement.Replicated {
		return placement.LeafRuns(l, nWorkers, 1)
	})
}

// startPlacedDriftCluster is startDriftCluster over nSlots worker slots with
// the placement place returns for the built layout; a slot it leaves empty
// still runs a worker that hosts nothing.
func startPlacedDriftCluster(t testing.TB, rows, nSlots int, cfg Config, place func(*layout.Layout) placement.Replicated) *driftCluster {
	t.Helper()
	data := unitData(t, rows, 7)
	hist := workload.Uniform(box2(0, 0, 0.45, 1), workload.Defaults(30, 11))
	l := buildLeftLayout(t, data, hist)
	oracle, err := router.NewMaster(l, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	f, err := dist.StartFleet(l, data.Names(), blockstore.Materialize(l, data, storeConfig), place(l), nSlots, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	tc := &driftCluster{data: data, hist: hist, layout: l, oracle: oracle,
		workers: f.Workers, master: f.Master, oracleRowsBySQL: make(map[string]int)}
	tc.ctl = New(f.Master, data, storeConfig.Builder(data), cfg)
	tc.ctl.Attach(false)
	return tc
}

// oracleRows counts the rows a query must return, independently of any
// layout: the SQL is routed on the static epoch-0 router purely to recover
// its range boxes, then counted directly against the dataset.
func (tc *driftCluster) oracleRows(t testing.TB, sql string) int {
	t.Helper()
	tc.oracleMu.Lock()
	if want, ok := tc.oracleRowsBySQL[sql]; ok {
		tc.oracleMu.Unlock()
		return want
	}
	tc.oracleMu.Unlock()
	plan, err := tc.oracle.RouteSQL(sql)
	if err != nil {
		t.Fatalf("oracle route %q: %v", sql, err)
	}
	want := 0
	for _, rp := range plan.Ranges {
		want += tc.data.CountInBox(rp.Range, nil)
	}
	tc.oracleMu.Lock()
	tc.oracleRowsBySQL[sql] = want
	tc.oracleMu.Unlock()
	return want
}

// serve runs one query through the master and asserts its row count against
// the static oracle.
func (tc *driftCluster) serve(t testing.TB, sql string) dist.QueryResponse {
	t.Helper()
	resp, err := tc.master.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	if want := tc.oracleRows(t, sql); resp.Rows != want {
		t.Fatalf("query %q: %d rows, oracle says %d", sql, resp.Rows, want)
	}
	return resp
}
