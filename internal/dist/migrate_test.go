package dist

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paw/internal/blockstore"
	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/faultnet"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/sqlrew"
)

// epochs lists the layout epochs the worker currently serves, ascending.
func (w *Worker) epochs() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]uint64, 0, len(w.views))
	for e := range w.views {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// Migration unit tests: a hand-assembled quadrant layout whose right half is
// patched from a vertical to a horizontal split, so the diff (2 renamed, 2
// removed, 2 added) and every payload are fully controlled. The chaos
// migration scenarios at the bottom reuse the same fixture behind faultnet
// scripts.

// migClusterFixture is a live cluster plus a ready-to-apply migration.
type migClusterFixture struct {
	data    *dataset.Dataset
	old     *layout.Layout
	next    *layout.Layout
	diff    layout.Diff
	mig     *Migration
	rep     placement.Replicated
	workers []*Worker
	master  *Master
	reg     *obs.Registry
}

func migLeaf(b geom.Box, rows int64) *layout.Node {
	return &layout.Node{
		Desc: layout.NewRect(b),
		Part: &layout.Partition{Desc: layout.NewRect(b), FullRows: rows},
	}
}

// buildMigFixture starts nWorkers workers (each optionally behind a faultnet
// script) and a master serving the quadrant layout, and constructs the patch
// migration without applying it. An optional scanHook is installed on every
// worker before it serves, called with the worker's index and the partition
// of each kernel scan.
func buildMigFixture(t *testing.T, nWorkers int, scripts map[int]faultnet.Script, cfg Config, scanHook ...func(w int, id layout.ID)) *migClusterFixture {
	t.Helper()
	data := dataset.Uniform(6000, 2, 19)
	dom := data.Domain()
	midX := (dom.Lo[0] + dom.Hi[0]) / 2
	midY := (dom.Lo[1] + dom.Hi[1]) / 2
	midRX := (midX + dom.Hi[0]) / 2
	box := func(lo0, lo1, hi0, hi1 float64) geom.Box {
		return geom.Box{Lo: geom.Point{lo0, lo1}, Hi: geom.Point{hi0, hi1}}
	}

	left := &layout.Node{Desc: layout.NewRect(box(dom.Lo[0], dom.Lo[1], midX, dom.Hi[1])), Children: []*layout.Node{
		migLeaf(box(dom.Lo[0], dom.Lo[1], midX, midY), 0),
		migLeaf(box(dom.Lo[0], midY, midX, dom.Hi[1]), 0),
	}}
	right := &layout.Node{Desc: layout.NewRect(box(midX, dom.Lo[1], dom.Hi[0], dom.Hi[1])), Children: []*layout.Node{
		migLeaf(box(midX, dom.Lo[1], midRX, dom.Hi[1]), 0),
		migLeaf(box(midRX, dom.Lo[1], dom.Hi[0], dom.Hi[1]), 0),
	}}
	root := &layout.Node{Desc: layout.NewRect(dom), Children: []*layout.Node{left, right}}
	old := layout.Seal("manual", root, data.RowBytes())
	old.Route(data)
	if old.Unrouted != 0 {
		t.Fatalf("%d rows unrouted", old.Unrouted)
	}
	store := blockstore.Materialize(old, data, blockstore.Config{GroupRows: 256})

	// Replacement: right half split horizontally. Row lists follow the same
	// first-containing-child order the router uses, so counts line up
	// exactly.
	rbBox := box(midX, dom.Lo[1], dom.Hi[0], midY)
	rtBox := box(midX, midY, dom.Hi[0], dom.Hi[1])
	var rbRows, rtRows []int
	for i := 0; i < data.NumRows(); i++ {
		p := data.Point(i)
		switch {
		case rbBox.Contains(p):
			rbRows = append(rbRows, i)
		case rtBox.Contains(p):
			rtRows = append(rtRows, i)
		}
	}
	repl := &layout.Node{Desc: layout.NewRect(box(midX, dom.Lo[1], dom.Hi[0], dom.Hi[1])), Children: []*layout.Node{
		migLeaf(rbBox, int64(len(rbRows))),
		migLeaf(rtBox, int64(len(rtRows))),
	}}
	next, diff, err := layout.PatchSubtree(old, right, repl)
	if err != nil {
		t.Fatal(err)
	}
	rowsFor := map[layout.ID][]int{diff.Added[0]: rbRows, diff.Added[1]: rtRows}

	// Cluster: every old partition on worker id%n.
	rep := make(placement.Replicated, len(old.Parts))
	for _, p := range old.Parts {
		rep[p.ID] = []int{int(p.ID) % nWorkers}
	}
	var hook func(w int, id layout.ID)
	if len(scanHook) > 0 {
		hook = scanHook[0]
	}
	f := startFleet(t, old, data.Names(), store, rep, nWorkers, scripts, hook)
	tc := &migClusterFixture{data: data, old: old, next: next, diff: diff, rep: rep,
		workers: f.Workers, master: f.Master, reg: obs.New()}
	f.Master.Configure(cfg)
	f.Master.SetMetrics(tc.reg)

	// The migration: aliases for the surviving left half, payloads for the
	// rebuilt right half.
	nextRouter, err := router.NewMaster(next, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	nextRep := make(placement.Replicated, len(next.Parts))
	var entries []MigrationEntry
	for oldID, newID := range diff.Renamed {
		nextRep[newID] = rep[oldID]
		entries = append(entries, MigrationEntry{
			ID:      newID,
			Workers: rep[oldID],
			ReuseID: oldID,
			Rows:    next.Parts[newID].FullRows,
		})
	}
	for _, id := range diff.Added {
		var buf bytes.Buffer
		if err := colstore.FromDataset(data, rowsFor[id], 256).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		ws := []int{int(id) % nWorkers}
		nextRep[id] = ws
		entries = append(entries, MigrationEntry{
			ID:      id,
			Workers: ws,
			ReuseID: -1,
			Payload: buf.Bytes(),
			Rows:    int64(len(rowsFor[id])),
		})
	}
	tc.mig = &Migration{
		Epoch:    1,
		Router:   nextRouter,
		Replicas: nextRep,
		Entries:  entries,
		Renamed:  diff.Renamed,
	}
	return tc
}

// checkQueries runs one query per quadrant-ish region and asserts exact row
// counts against the dataset.
func (tc *migClusterFixture) checkQueries(t *testing.T) {
	t.Helper()
	dom := tc.data.Domain()
	names := tc.data.Names()
	w0, h0 := dom.Hi[0]-dom.Lo[0], dom.Hi[1]-dom.Lo[1]
	probes := []geom.Box{
		{Lo: geom.Point{dom.Lo[0], dom.Lo[1]}, Hi: geom.Point{dom.Lo[0] + 0.3*w0, dom.Lo[1] + 0.7*h0}},
		{Lo: geom.Point{dom.Lo[0] + 0.6*w0, dom.Lo[1] + 0.1*h0}, Hi: geom.Point{dom.Lo[0] + 0.9*w0, dom.Lo[1] + 0.4*h0}},
		{Lo: geom.Point{dom.Lo[0] + 0.4*w0, dom.Lo[1] + 0.4*h0}, Hi: geom.Point{dom.Lo[0] + 0.8*w0, dom.Lo[1] + 0.9*h0}},
	}
	for _, b := range probes {
		sql := sqlrew.BoxSQL(names, b)
		resp, err := tc.master.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if want := tc.data.CountInBox(b, nil); resp.Rows != want {
			t.Fatalf("%q: %d rows, want %d", sql, resp.Rows, want)
		}
	}
}

func fastMigConfig() Config {
	cfg := fastChaosConfig()
	cfg.ResultCacheSize = 64
	return cfg
}

func TestMigrationAppliesAliasesAndPayloads(t *testing.T) {
	tc := buildMigFixture(t, 3, nil, fastMigConfig())
	tc.checkQueries(t)
	if err := tc.master.ApplyMigration(context.Background(), tc.mig); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got := tc.master.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	tc.checkQueries(t)

	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricMigrations); got != 1 {
		t.Errorf("migrations = %d, want 1", got)
	}
	if got := snap.Counter(MetricReusedPartitions); got != int64(len(tc.diff.Renamed)) {
		t.Errorf("reused partitions = %d, want %d", got, len(tc.diff.Renamed))
	}
	if got := snap.Counter(MetricMigratedPartitions); got != int64(len(tc.diff.Added)) {
		t.Errorf("migrated partitions = %d, want %d", got, len(tc.diff.Added))
	}
	if got := snap.Counter(MetricMigratedBytes); got <= 0 {
		t.Error("migration must account shipped bytes")
	}
	// The old epoch is retired: every worker serves only epoch 1.
	for w, wk := range tc.workers {
		for _, e := range wk.epochs() {
			if e != 1 {
				t.Errorf("worker %d still holds epoch %d", w, e)
			}
		}
	}
}

func TestMigrationValidationRejects(t *testing.T) {
	tc := buildMigFixture(t, 2, nil, fastMigConfig())
	base := tc.mig

	cases := []struct {
		name   string
		mutate func(m *Migration)
	}{
		{"wrong-epoch", func(m *Migration) { m.Epoch = 2 }},
		{"nil-router", func(m *Migration) { m.Router = nil }},
		{"duplicate-entry", func(m *Migration) { m.Entries = append(m.Entries, m.Entries[0]) }},
		{"missing-entry", func(m *Migration) { m.Entries = m.Entries[1:] }},
		{"unknown-partition", func(m *Migration) {
			m.Entries = append([]MigrationEntry(nil), m.Entries...)
			m.Entries[0].ID = layout.ID(len(tc.next.Parts))
			// Keep the accounting otherwise plausible: drop the collision.
		}},
		{"no-workers", func(m *Migration) {
			m.Entries = append([]MigrationEntry(nil), m.Entries...)
			m.Entries[0].Workers = nil
		}},
		{"worker-out-of-range", func(m *Migration) {
			m.Entries = append([]MigrationEntry(nil), m.Entries...)
			m.Entries[0].Workers = []int{99}
		}},
		{"alias-disagrees-with-renamed", func(m *Migration) {
			m.Entries = append([]MigrationEntry(nil), m.Entries...)
			for i := range m.Entries {
				if m.Entries[i].ReuseID >= 0 {
					m.Entries[i].ReuseID++
					return
				}
			}
			t.Fatal("no alias entry in fixture")
		}},
		{"bad-placement", func(m *Migration) { m.Replicas = placement.Replicated{} }},
		{"workers-disagree-with-replicas", func(m *Migration) {
			// Install a rebuilt partition (an alias would be refused by a
			// worker without its source) on the workers the placement does
			// not route it to: validation must refuse before any install.
			m.Entries = append([]MigrationEntry(nil), m.Entries...)
			i := slices.IndexFunc(m.Entries, func(e MigrationEntry) bool { return e.ReuseID < 0 })
			if i < 0 {
				t.Fatal("no rebuilt entry in fixture")
			}
			e := &m.Entries[i]
			e.Workers = nil
			for w := 0; w < tc.master.NumWorkers(); w++ {
				if !slices.Contains(m.Replicas[e.ID], w) {
					e.Workers = append(e.Workers, w)
				}
			}
			if len(e.Workers) == 0 {
				t.Fatal("partition is on every worker: no foreign replica set to install on")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := *base
			m.Entries = base.Entries
			m.Replicas = base.Replicas
			c.mutate(&m)
			if err := tc.master.ApplyMigration(context.Background(), &m); err == nil {
				t.Fatal("invalid migration must be rejected")
			}
			if got := tc.master.Epoch(); got != 0 {
				t.Fatalf("rejected migration moved the epoch to %d", got)
			}
		})
	}
	// The untouched plan still applies after all those rejections.
	if err := tc.master.ApplyMigration(context.Background(), base); err != nil {
		t.Fatalf("valid migration after rejections: %v", err)
	}
	tc.checkQueries(t)
}

func TestMigrationSweepsCachesPerPartition(t *testing.T) {
	tc := buildMigFixture(t, 2, nil, fastMigConfig())
	dom := tc.data.Domain()
	names := tc.data.Names()
	w0, h0 := dom.Hi[0]-dom.Lo[0], dom.Hi[1]-dom.Lo[1]
	// leftSQL touches only surviving partitions; rightSQL the rebuilt region.
	leftB := geom.Box{Lo: geom.Point{dom.Lo[0], dom.Lo[1]}, Hi: geom.Point{dom.Lo[0] + 0.2*w0, dom.Lo[1] + 0.8*h0}}
	rightB := geom.Box{Lo: geom.Point{dom.Lo[0] + 0.7*w0, dom.Lo[1] + 0.1*h0}, Hi: geom.Point{dom.Lo[0] + 0.95*w0, dom.Lo[1] + 0.9*h0}}
	leftSQL, rightSQL := sqlrew.BoxSQL(names, leftB), sqlrew.BoxSQL(names, rightB)

	for _, sql := range []string{leftSQL, rightSQL} {
		if _, err := tc.master.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.master.ApplyMigration(context.Background(), tc.mig); err != nil {
		t.Fatal(err)
	}
	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricCacheRemapped); got < 1 {
		t.Errorf("cache entries remapped = %d, want >= 1 (left query survives)", got)
	}
	if got := snap.Counter(MetricCacheSwept); got < 1 {
		t.Errorf("cache entries swept = %d, want >= 1 (right query dropped)", got)
	}

	// The remapped plan must serve a result-cache hit with exact rows; the
	// rebuilt region re-routes and stays exact.
	before := snap.Counter(MetricResultCacheHits)
	for _, sql := range []string{leftSQL, rightSQL} {
		resp, err := tc.master.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		b := leftB
		if sql == rightSQL {
			b = rightB
		}
		if want := tc.data.CountInBox(b, nil); resp.Rows != want {
			t.Fatalf("%q after cutover: %d rows, want %d", sql, resp.Rows, want)
		}
	}
	if got := tc.reg.Snapshot().Counter(MetricResultCacheHits); got != before+1 {
		t.Errorf("result cache hits after cutover = %d, want %d (translated entry only)", got, before+1)
	}
}

// TestHotResultSurvivesCutoverAfterManyStatements: an entry of the result
// cache lives or dies at a cutover by its own plan, whatever else was routed
// since it was answered. (It used to survive only while its plan was still
// among the 1 024 plan-cache entries, which a result hit never refreshed.)
func TestHotResultSurvivesCutoverAfterManyStatements(t *testing.T) {
	tc := buildMigFixture(t, 2, nil, DefaultConfig())
	dom := tc.data.Domain()
	names := tc.data.Names()
	w0, h0 := dom.Hi[0]-dom.Lo[0], dom.Hi[1]-dom.Lo[1]
	// The hot statement touches only surviving partitions.
	hotB := geom.Box{Lo: geom.Point{dom.Lo[0], dom.Lo[1]}, Hi: geom.Point{dom.Lo[0] + 0.2*w0, dom.Lo[1] + 0.8*h0}}
	hotSQL := sqlrew.BoxSQL(names, hotB)
	want := tc.data.CountInBox(hotB, nil)
	hot := func() QueryResponse {
		t.Helper()
		resp, err := tc.master.Query(hotSQL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rows != want {
			t.Fatalf("hot statement: %d rows, want %d", resp.Rows, want)
		}
		return resp
	}
	first := hot()
	for i := 0; i < 1100; i++ {
		x := dom.Lo[0] + (0.55+0.0004*float64(i))*w0
		b := geom.Box{Lo: geom.Point{x, dom.Lo[1]}, Hi: geom.Point{x + 0.0002*w0, dom.Lo[1] + 0.1*h0}}
		if _, err := tc.master.Query(sqlrew.BoxSQL(names, b)); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			hot() // a hit: keeps the entry recent among the 256 results
		}
	}
	if err := tc.master.ApplyMigration(context.Background(), tc.mig); err != nil {
		t.Fatal(err)
	}

	var seen []QueryObservation
	tc.master.SetQueryObserver(func(ob QueryObservation) { seen = append(seen, ob) })
	before := tc.reg.Snapshot().Counter(MetricResultCacheHits)
	if after := hot(); !reflect.DeepEqual(after, first) {
		t.Fatalf("hot statement after cutover: %+v, want the cached %+v", after, first)
	}
	if got := tc.reg.Snapshot().Counter(MetricResultCacheHits); got != before+1 {
		t.Fatalf("result cache hits = %d, want %d: the hot entry did not survive the cutover", got, before+1)
	}
	// The observer of a hit sees the entry's own plan, translated.
	ids := tc.next.PartitionsFor(hotB)
	if len(seen) != 1 || !seen[0].Cached || seen[0].Epoch != 1 || !reflect.DeepEqual(seen[0].IDs, ids) {
		t.Fatalf("observation of the hit: %+v, want cached, epoch 1, partitions %v", seen, ids)
	}
}

// identityMigration is the rebalance shape: the same layout under the next
// epoch, every partition renamed to itself and aliased where it already is.
func (tc *migClusterFixture) identityMigration() *Migration {
	mig := &Migration{
		Epoch:    tc.master.Epoch() + 1,
		Router:   tc.master.Router(),
		Replicas: tc.master.Placement(),
		Renamed:  make(map[layout.ID]layout.ID),
	}
	for _, p := range mig.Router.Layout().Parts {
		mig.Renamed[p.ID] = p.ID
		mig.Entries = append(mig.Entries, MigrationEntry{ID: p.ID, Workers: mig.Replicas[p.ID], ReuseID: p.ID, Rows: p.FullRows})
	}
	return mig
}

// TestIdentityMigrationKeepsEveryResult: a migration that renames every
// partition to itself drops nothing — with the result cache as the only cache
// configured (it used to be emptied wholesale then) — and the hits after it
// are the answers from before it.
func TestIdentityMigrationKeepsEveryResult(t *testing.T) {
	cfg := fastChaosConfig()
	cfg.ResultCacheSize = 64
	tc := buildMigFixture(t, 2, nil, cfg)
	dom := tc.data.Domain()
	names := tc.data.Names()
	w0, h0 := dom.Hi[0]-dom.Lo[0], dom.Hi[1]-dom.Lo[1]
	answers := make(map[string]QueryResponse)
	for i := 0; i < 12; i++ {
		x := dom.Lo[0] + 0.08*float64(i)*w0
		sql := sqlrew.BoxSQL(names, geom.Box{Lo: geom.Point{x, dom.Lo[1] + 0.3*h0}, Hi: geom.Point{x + 0.1*w0, dom.Lo[1] + 0.7*h0}})
		resp, err := tc.master.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		answers[sql] = resp
	}
	if err := tc.master.ApplyMigration(context.Background(), tc.identityMigration()); err != nil {
		t.Fatal(err)
	}
	snap := tc.reg.Snapshot()
	if remapped, swept := snap.Counter(MetricCacheRemapped), snap.Counter(MetricCacheSwept); remapped != int64(len(answers)) || swept != 0 {
		t.Fatalf("sweep remapped %d and dropped %d entries, want %d and 0", remapped, swept, len(answers))
	}
	if got := tc.master.resultCache.Len(); got != len(answers) {
		t.Fatalf("%d result entries after the cutover, want %d", got, len(answers))
	}
	hits := snap.Counter(MetricResultCacheHits)
	for sql, want := range answers {
		got, err := tc.master.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q after the cutover: %+v, want %+v", sql, got, want)
		}
	}
	if got := tc.reg.Snapshot().Counter(MetricResultCacheHits); got != hits+int64(len(answers)) {
		t.Fatalf("result cache hits = %d, want %d (every entry kept)", got, hits+int64(len(answers)))
	}
}

// TestStaleEpochResultIsAMiss: a query that raced the cutover may Put its
// answer after the sweep ran. The entry carries the outgoing epoch, so it is
// never served; the next answer overwrites it.
func TestStaleEpochResultIsAMiss(t *testing.T) {
	tc := buildMigFixture(t, 2, nil, fastMigConfig())
	b := tc.data.Domain()
	sql := sqlrew.BoxSQL(tc.data.Names(), b)
	plan, err := tc.master.Router().RouteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.master.ApplyMigration(context.Background(), tc.mig); err != nil {
		t.Fatal(err)
	}
	tc.master.resultCache.Put(sql, cachedResult{resp: QueryResponse{Rows: -1}, plan: plan, epoch: 0})
	for i, wantHits := range []int64{0, 1} {
		resp, err := tc.master.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.data.CountInBox(b, nil); resp.Rows != want {
			t.Fatalf("query %d: %d rows, want %d (the outgoing epoch's entry was served)", i, resp.Rows, want)
		}
		if got := tc.reg.Snapshot().Counter(MetricResultCacheHits); got != wantHits {
			t.Fatalf("query %d: result cache hits = %d, want %d", i, got, wantHits)
		}
	}
}

func TestMigrationAbortsOnWorkerRefusal(t *testing.T) {
	tc := buildMigFixture(t, 2, nil, fastMigConfig())
	// Corrupt one payload's row claim: the worker decodes, refuses, and the
	// refusal is not retried.
	bad := *tc.mig
	bad.Entries = append([]MigrationEntry(nil), tc.mig.Entries...)
	for i := range bad.Entries {
		if bad.Entries[i].ReuseID < 0 {
			bad.Entries[i].Rows++
			break
		}
	}
	if err := tc.master.ApplyMigration(context.Background(), &bad); err == nil {
		t.Fatal("migration with a lying payload must abort")
	}
	if got := tc.master.Epoch(); got != 0 {
		t.Fatalf("aborted migration moved the epoch to %d", got)
	}
	if got := tc.reg.Snapshot().Counter(MetricMigrationsAborted); got != 1 {
		t.Errorf("aborted migrations = %d, want 1", got)
	}
	// No partial cutover: no worker retains any trace of epoch 1.
	for w, wk := range tc.workers {
		for _, e := range wk.epochs() {
			if e == 1 {
				t.Errorf("worker %d leaked the aborted epoch", w)
			}
		}
	}
	tc.checkQueries(t)

	// The fixed plan still applies afterwards.
	if err := tc.master.ApplyMigration(context.Background(), tc.mig); err != nil {
		t.Fatalf("apply after abort: %v", err)
	}
	tc.checkQueries(t)
}

func TestMigrationRejectsConcurrentMigration(t *testing.T) {
	tc := buildMigFixture(t, 2, nil, fastMigConfig())
	tc.master.mig.Store(&activeMigration{view: &routeView{epoch: 1}})
	if err := tc.master.ApplyMigration(context.Background(), tc.mig); err == nil {
		t.Fatal("second concurrent migration must be rejected")
	}
	tc.master.mig.Store(nil)
	if err := tc.master.ApplyMigration(context.Background(), tc.mig); err != nil {
		t.Fatalf("apply after the stale migration cleared: %v", err)
	}
}

// TestChaosMigrationWorkerDown: a worker that must receive a payload dies
// before the install. The migration aborts after bounded retries, the old
// placement keeps serving exactly, and no worker holds a partial next epoch.
func TestChaosMigrationWorkerDown(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := buildMigFixture(t, 2, nil, fastChaosConfig())
			// Kill the worker hosting the first payload partition.
			var victim int
			for _, e := range tc.mig.Entries {
				if e.ReuseID < 0 {
					victim = e.Workers[0]
					break
				}
			}
			tc.workers[victim].Close()
			if err := tc.master.ApplyMigration(context.Background(), tc.mig); err == nil {
				t.Fatal("migration must abort when an install target is down")
			}
			if got := tc.master.Epoch(); got != 0 {
				t.Fatalf("epoch = %d after abort, want 0", got)
			}
			if got := tc.reg.Snapshot().Counter(MetricMigrationsAborted); got != 1 {
				t.Errorf("aborted migrations = %d, want 1", got)
			}
			for w, wk := range tc.workers {
				if w == victim {
					continue
				}
				for _, e := range wk.epochs() {
					if e == 1 {
						t.Errorf("worker %d holds the aborted epoch", w)
					}
				}
			}
			// The surviving worker keeps serving its share of the old
			// placement: a query strictly inside one of its partitions (so no
			// shared boundary routes to the dead worker) stays exact.
			names := tc.data.Names()
			for _, p := range tc.old.Parts {
				if tc.rep[p.ID][0] == victim {
					continue
				}
				m := p.Desc.MBR()
				b := geom.Box{Lo: geom.Point{}, Hi: geom.Point{}}
				for d := 0; d < m.Dims(); d++ {
					eps := (m.Hi[d] - m.Lo[d]) / 100
					b.Lo = append(b.Lo, m.Lo[d]+eps)
					b.Hi = append(b.Hi, m.Hi[d]-eps)
				}
				sql := sqlrew.BoxSQL(names, b)
				resp, err := tc.master.Query(sql)
				if err != nil {
					t.Fatalf("query on surviving worker: %v", err)
				}
				if want := tc.data.CountInBox(b, nil); resp.Rows != want {
					t.Fatalf("partition %d query: %d rows, want %d", p.ID, resp.Rows, want)
				}
			}
		})
	}
}

// TestChaosMigrationCorruptedStream: the install stream to one worker is
// corrupted by faultnet on the first connection. Depending on where the
// corruption lands the admin call either recovers on retry (migration
// completes) or exhausts its attempts (migration aborts) — both outcomes
// must leave the cluster consistent: served queries stay exact and the
// epoch is either fully cut over or fully rolled back.
func TestChaosMigrationCorruptedStream(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// With 2 workers both rebuilt partitions ship payloads, one per
			// worker — corrupting worker 0's stream always hits an install.
			tc := buildMigFixture(t, 2, map[int]faultnet.Script{
				0: {Seed: seed, Rules: []faultnet.Rule{
					{Conn: 0, Op: faultnet.OnWrite, Call: 0, Action: faultnet.Corrupt, Bytes: 4},
				}},
			}, fastChaosConfig())
			err := tc.master.ApplyMigration(context.Background(), tc.mig)
			snap := tc.reg.Snapshot()
			if err != nil {
				// Aborted: full rollback, old epoch serving.
				if got := tc.master.Epoch(); got != 0 {
					t.Fatalf("epoch = %d after abort, want 0", got)
				}
				if got := snap.Counter(MetricMigrationsAborted); got != 1 {
					t.Errorf("aborted migrations = %d, want 1", got)
				}
				for w, wk := range tc.workers {
					for _, e := range wk.epochs() {
						if e == 1 {
							t.Errorf("worker %d holds the aborted epoch", w)
						}
					}
				}
			} else {
				// Recovered: full cutover.
				if got := tc.master.Epoch(); got != 1 {
					t.Fatalf("epoch = %d after recovery, want 1", got)
				}
				if got := snap.Counter(MetricMigrations); got != 1 {
					t.Errorf("migrations = %d, want 1", got)
				}
			}
			tc.checkQueries(t)
		})
	}
}

// TestMigrationCutoverWaitsForRoutedQuery: a query that has routed against
// the served view — but not started scattering yet — is in flight as far as a
// cutover is concerned (benchmark/README.md, finding 1). The hook holds one
// query between route and scatter while a migration installs and cuts over;
// the old epoch must survive on the workers until that query has answered,
// exactly and without a retry. Nothing moves the master's clock: the query's
// unpin alone wakes the drain.
func TestMigrationCutoverWaitsForRoutedQuery(t *testing.T) {
	cfg := fastMigConfig()
	cfg.ResultCacheSize = 0
	tc := buildMigFixture(t, 2, nil, cfg)
	tc.master.clock = newFakeClock()
	var holding atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	tc.master.routedHook = func() {
		if holding.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
	}

	// The probe straddles the surviving left half and the rebuilt right half.
	dom := tc.data.Domain()
	w0, h0 := dom.Hi[0]-dom.Lo[0], dom.Hi[1]-dom.Lo[1]
	probe := geom.Box{Lo: geom.Point{dom.Lo[0] + 0.3*w0, dom.Lo[1] + 0.2*h0}, Hi: geom.Point{dom.Lo[0] + 0.9*w0, dom.Lo[1] + 0.8*h0}}
	type answer struct {
		resp QueryResponse
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := tc.master.Query(sqlrew.BoxSQL(tc.data.Names(), probe))
		answered <- answer{resp, err}
	}()
	<-held

	migrated := make(chan error, 1)
	go func() { migrated <- tc.master.ApplyMigration(context.Background(), tc.mig) }()
	waitFor(t, "the cutover", func() bool { return tc.master.Epoch() == 1 })
	// A cutover that overlooked the held query retires epoch 0 within
	// microseconds; give it every chance to.
	holdsEpoch0 := func() bool { return tc.holdsEpoch0() }
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline) && holdsEpoch0(); {
		time.Sleep(time.Millisecond)
	}
	if !holdsEpoch0() {
		t.Error("epoch 0 was retired while a query routed under it had not answered")
	}
	close(release)

	a := <-answered
	if a.err != nil {
		t.Fatalf("held query: %v", a.err)
	}
	if want := tc.data.CountInBox(probe, nil); a.resp.Rows != want {
		t.Fatalf("held query: %d rows, want %d", a.resp.Rows, want)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("apply: %v", err)
	}
	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricRetries) + snap.Counter(MetricCallFailures); got != 0 {
		t.Errorf("retries + call failures = %d, want 0", got)
	}
	if got := snap.Counter(MetricDrainTimeouts); got != 0 {
		t.Errorf("drain timeouts = %d, want 0", got)
	}
	// With the query answered the drain completes and epoch 0 is gone.
	for w, wk := range tc.workers {
		if es := wk.epochs(); len(es) != 1 || es[0] != 1 {
			t.Errorf("worker %d serves epochs %v after the migration, want [1]", w, es)
		}
	}
	tc.checkQueries(t)
}

// holdsEpoch0 reports whether every worker still serves epoch 0.
func (tc *migClusterFixture) holdsEpoch0() bool {
	for _, wk := range tc.workers {
		if es := wk.epochs(); len(es) == 0 || es[0] != 0 {
			return false
		}
	}
	return true
}

// TestMigrationDrainTimeoutCounted: the cutover's wait for the old epoch is
// on the master's clock. With nothing in flight the old epoch retires at
// once; a query wedged between route and scatter holds it until the clock
// passes drainTimeout, when it retires anyway and the expiry is counted.
func TestMigrationDrainTimeoutCounted(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		tc := buildMigFixture(t, 2, nil, fastMigConfig())
		tc.master.clock = newFakeClock()
		if err := tc.master.ApplyMigration(context.Background(), tc.mig); err != nil {
			t.Fatalf("apply: %v", err)
		}
		for w, wk := range tc.workers {
			if es := wk.epochs(); len(es) != 1 || es[0] != 1 {
				t.Errorf("worker %d serves epochs %v after an idle cutover, want [1]", w, es)
			}
		}
		if got := tc.reg.Snapshot().Counter(MetricDrainTimeouts); got != 0 {
			t.Errorf("drain timeouts = %d, want 0", got)
		}
	})
	t.Run("wedged", func(t *testing.T) {
		tc := buildMigFixture(t, 2, nil, fastMigConfig())
		clk := newFakeClock()
		tc.master.clock = clk
		var holding atomic.Bool
		held, release := make(chan struct{}), make(chan struct{})
		tc.master.routedHook = func() {
			if holding.CompareAndSwap(false, true) {
				close(held)
				<-release
			}
		}
		answered := make(chan error, 1)
		go func() {
			_, err := tc.master.Query(sqlrew.BoxSQL(tc.data.Names(), tc.data.Domain()))
			answered <- err
		}()
		<-held

		migrated := make(chan error, 1)
		go func() { migrated <- tc.master.ApplyMigration(context.Background(), tc.mig) }()
		waitFor(t, "the drain timer", func() bool { return clk.armed(drainTimeout) })
		if !tc.holdsEpoch0() {
			t.Fatal("epoch 0 was retired under a wedged query before the clock moved")
		}
		clk.Advance(drainTimeout)
		if err := <-migrated; err != nil {
			t.Fatalf("apply: %v", err)
		}
		if got := tc.reg.Snapshot().Counter(MetricDrainTimeouts); got != 1 {
			t.Errorf("drain timeouts = %d, want 1", got)
		}
		for w, wk := range tc.workers {
			if es := wk.epochs(); len(es) != 1 || es[0] != 1 {
				t.Errorf("worker %d serves epochs %v after the drain timed out, want [1]", w, es)
			}
		}
		close(release)
		if err := <-answered; err == nil || !strings.Contains(err.Error(), "no layout epoch 0") {
			t.Fatalf("wedged query: err = %v, want its retired epoch named", err)
		}
		tc.checkQueries(t)
	})
}
