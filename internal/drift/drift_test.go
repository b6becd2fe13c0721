package drift

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/descriptor"
	"paw/internal/geom"
	"paw/internal/invariant"
	"paw/internal/layout"
	"paw/internal/placement"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

func testConfig() Config {
	return Config{
		Window:       64,
		CheckEvery:   16,
		Delta:        0.02,
		CostFactor:   1.2,
		MinGain:      0.05,
		BuildMinRows: 10,
		BuildSample:  1000,
		Seed:         42,
	}
}

// TestDriftEndToEnd is the tentpole acceptance test: a seeded drifting
// workload trips the monitor, the controller rebuilds only the drifted
// region and migrates the cluster onto the patch without stopping service,
// every query before/during/after answers exactly what the static oracle
// says, and the recovered per-query scan cost lands within 10% of a full
// offline rebuild for the same live workload.
func TestDriftEndToEnd(t *testing.T) {
	cfg := testConfig()
	tc := startDriftCluster(t, 16000, 3, cfg)
	names := tc.data.Names()

	// Phase 1 — steady traffic from the reference workload: fills the
	// window, sets the cost baseline, must not trigger.
	for i := 0; i < cfg.Window; i++ {
		tc.serve(t, sqlrew.BoxSQL(names, tc.hist[i%len(tc.hist)].Box))
	}
	if rep, err := tc.ctl.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	} else if rep.Triggered {
		t.Fatalf("steady traffic must not trigger: %+v", rep.Decision)
	}

	// Phase 2 — drifted traffic: small queries in the coarse right region.
	drifted := rightBoxes(cfg.Window, 99)
	// Two observed volumes per pass: the bytes the kernel read, and the bytes
	// of the partitions the layout routed the queries to (read + skipped —
	// every routed partition's encoded size lands in one or the other).
	var preBytes, preOpened int64
	for _, b := range drifted {
		resp := tc.serve(t, sqlrew.BoxSQL(names, b))
		preBytes += resp.BytesScanned
		preOpened += resp.BytesScanned + resp.BytesSkipped
	}

	// Phase 3 — trigger while concurrent clients keep querying: the
	// migration must not produce a single wrong answer.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	concurrent := rightBoxes(8, 123)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := sqlrew.BoxSQL(names, concurrent[(g+i)%len(concurrent)])
				resp, err := tc.master.Query(sql)
				if err != nil {
					t.Errorf("query during migration: %v", err)
					return
				}
				if want := tc.oracleRows(t, sql); resp.Rows != want {
					t.Errorf("query during migration: %d rows, oracle says %d", resp.Rows, want)
					return
				}
			}
		}(g)
	}
	rep, err := tc.ctl.TriggerNow(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("trigger: %v (report %+v)", err, rep)
	}
	if !rep.Triggered || !rep.Migrated {
		t.Fatalf("drifted traffic must trigger and migrate: %+v", rep)
	}
	if rep.Epoch != 1 || tc.master.Epoch() != 1 {
		t.Fatalf("epoch = %d (master %d), want 1", rep.Epoch, tc.master.Epoch())
	}
	if rep.Added == 0 || rep.Removed == 0 || rep.Renamed == 0 {
		t.Fatalf("patch must rebuild a strict subtree: %+v", rep)
	}
	if rep.MovedBytes <= 0 {
		t.Fatal("migration must ship rebuilt payloads")
	}
	if rep.CostAfter >= rep.CostBefore {
		t.Fatalf("modeled window cost must drop: %d -> %d", rep.CostBefore, rep.CostAfter)
	}

	// Phase 4 — the same drifted queries after cutover: still exact, and
	// observed scan volume must have recovered. The halving bar sits on the
	// volume the layout controls, the partitions it opens: row-group pruning
	// inside the clustered partitions already spares the stale layout most of
	// the bytes it opens (the kernel read 428 784 of 8 697 856 before the
	// migration), so the bytes read can only be held to "lower" here — and to
	// a fresh store's, below.
	var postBytes, postOpened int64
	for _, b := range drifted {
		resp := tc.serve(t, sqlrew.BoxSQL(names, b))
		postBytes += resp.BytesScanned
		postOpened += resp.BytesScanned + resp.BytesSkipped
	}
	if postOpened >= preOpened/2 {
		t.Fatalf("opened partition volume did not recover: %d pre, %d post", preOpened, postOpened)
	}
	if postBytes >= preBytes {
		t.Fatalf("observed scan volume did not recover: %d pre, %d post", preBytes, postBytes)
	}
	// Steady traffic still works on the patched layout (renamed partitions
	// serve via zero-copy aliases).
	for i := 0; i < 8; i++ {
		tc.serve(t, sqlrew.BoxSQL(names, tc.hist[i].Box))
	}

	// Recovery quality: within 10% of a full offline rebuild for the live
	// workload, run through the same construction pipeline (refined sample
	// build, then every row routed) over the whole domain.
	var live workload.Workload
	for i, b := range drifted {
		live = append(live, workload.Query{Box: b, Seq: int64(i)})
	}
	offline := offlineRebuild(t, tc, live, cfg)
	liveBoxes := live.Boxes()
	got := tc.ctl.layout().AvgCost(liveBoxes, nil)
	want := offline.AvgCost(liveBoxes, nil)
	if want <= 0 {
		t.Fatalf("offline rebuild cost = %g", want)
	}
	if got > 1.10*want {
		t.Fatalf("recovered cost %.0f exceeds 110%% of offline rebuild %.0f", got, want)
	}
	// The same bar on what the kernel reads: the migrated cluster scans no
	// more than 110% of a store freshly materialised from the offline rebuild,
	// so the shipped payloads prune as well as fresh tables do.
	fresh := blockstore.Materialize(offline, tc.data, storeConfig)
	var freshBytes int64
	for _, b := range liveBoxes {
		st, err := fresh.ScanAll(offline.PartitionsFor(b), b)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.data.CountInBox(b, nil); st.Matched != want {
			t.Fatalf("fresh store: %d rows for %v, oracle says %d", st.Matched, b, want)
		}
		freshBytes += st.BytesRead
	}
	if float64(postBytes) > 1.10*float64(freshBytes) {
		t.Fatalf("migrated cluster read %d bytes, over 110%% of the %d a fresh store of the offline rebuild reads", postBytes, freshBytes)
	}
}

// offlineRebuild builds the live workload's layout over the whole domain
// with the controller's pipeline (the two calls `pawcli build` makes) — the
// quality bar the incremental patch is measured against.
func offlineRebuild(t *testing.T, tc *driftCluster, live workload.Workload, cfg Config) *layout.Layout {
	t.Helper()
	all := make([]int, tc.data.NumRows())
	for i := range all {
		all[i] = i
	}
	l := core.Build(tc.data, strideSample(all, cfg.BuildSample), tc.data.Domain(), live, core.Params{
		MinRows:         cfg.BuildMinRows,
		Delta:           cfg.Delta,
		DataAwareRefine: true,
	})
	l.Route(tc.data)
	return l
}

// TestMigrationPayloadsMatchMaterialize: a drift-rebuilt partition ships in
// the same physical layout a fresh store gives it. Every payload of a
// migration plan is byte-for-byte the encoding blockstore.Materialize produces
// for that partition on the patched layout — both go through colstore.Builder,
// and the rebuild's row sets arrive in region order, not row order.
func TestMigrationPayloadsMatchMaterialize(t *testing.T) {
	cfg := testConfig()
	tc := startDriftCluster(t, 16000, 2, cfg)
	// A planning-only controller over a store configuration of 64-row groups,
	// so that the rebuilt partitions span several.
	storeCfg := blockstore.Config{GroupRows: 64}
	ctl := New(tc.master, tc.data, storeCfg.Builder(tc.data), tc.hist, cfg)
	cur := ctl.layout()
	target := cur.SubtreeFor(box2(0.55, 0.05, 0.95, 0.95))
	if target == nil {
		t.Fatal("no subtree covers the drifted region")
	}
	var live workload.Workload
	for i, b := range rightBoxes(cfg.Window, 99) {
		live = append(live, workload.Query{Box: b, Seq: int64(i)})
	}
	newL, diff, payloadRows, err := ctl.rebuild(cur, target, live)
	if err != nil {
		t.Fatal(err)
	}
	mig, _, err := ctl.buildMigration(newL, diff, payloadRows)
	if err != nil {
		t.Fatal(err)
	}
	fresh := blockstore.Materialize(newL, tc.data, storeCfg)
	shipped, multiGroup := 0, 0
	for _, e := range mig.Entries {
		if e.Payload == nil {
			continue
		}
		sp, err := fresh.Partition(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := sp.Table.Encode(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Payload, want.Bytes()) {
			t.Fatalf("partition %d: migration payload (%d bytes) differs from the materialised table (%d bytes)",
				e.ID, len(e.Payload), want.Len())
		}
		shipped++
		if sp.Table.NumGroups() > 1 {
			multiGroup++
		}
	}
	if shipped == 0 || multiGroup == 0 {
		t.Fatalf("plan shipped %d payloads, %d of more than one row group: the comparison is vacuous", shipped, multiGroup)
	}
}

// TestDriftPlacesOnTheServingFleet: a drift migration places the partitions
// it adds on the workers the current placement uses, with the copy count it
// keeps — on a fleet with a slot that hosts nothing and whose listener is
// closed (a worker that left), and on a fleet of 2-copy replica sets.
func TestDriftPlacesOnTheServingFleet(t *testing.T) {
	for _, tt := range []struct {
		name   string
		copies int
		closed int // the slot that hosts nothing and is shut down; -1: none
		place  func(*layout.Layout) placement.Replicated
	}{
		{"empty-slot", 1, 2, func(l *layout.Layout) placement.Replicated {
			return placement.RoundRobin(l, 2).Replicated()
		}},
		{"two-copies", 2, -1, func(l *layout.Layout) placement.Replicated {
			rep := placement.RoundRobin(l, 3).Replicated()
			for id, ws := range rep {
				rep[id] = append(ws, (ws[0]+1)%3)
			}
			return rep
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tc := startPlacedDriftCluster(t, 16000, 3, cfg, tt.place)
			if tt.closed >= 0 {
				tc.workers[tt.closed].Close()
			}
			names := tc.data.Names()
			for i := 0; i < cfg.Window; i++ {
				tc.serve(t, sqlrew.BoxSQL(names, tc.hist[i%len(tc.hist)].Box))
			}
			drifted := rightBoxes(cfg.Window, 99)
			for _, b := range drifted {
				tc.serve(t, sqlrew.BoxSQL(names, b))
			}
			rep, err := tc.ctl.TriggerNow(context.Background())
			if err != nil || !rep.Migrated || rep.Added == 0 {
				t.Fatalf("drifted traffic must migrate: %+v, %v", rep, err)
			}
			for id, ws := range tc.master.Placement() {
				distinct := make(map[int]bool)
				for _, w := range ws {
					if w == tt.closed {
						t.Fatalf("partition %d placed on the empty slot %d: %v", id, w, ws)
					}
					distinct[w] = true
				}
				if len(distinct) != tt.copies {
					t.Fatalf("partition %d has %d distinct copies %v, the fleet keeps %d", id, len(distinct), ws, tt.copies)
				}
			}
			for _, b := range drifted {
				tc.serve(t, sqlrew.BoxSQL(names, b))
			}
		})
	}
}

// TestDriftAddedPartitionsCarryEnvelopes: a drift cutover leaves the served
// layout as blockstore.Materialize would have — every partition that holds
// rows carries one precise box, the envelope of its table, the added ones
// from the payloads the migration built — and the envelopes change no answer:
// the drifted and the reference statements return the dataset's rows and read
// the same bytes with them and after descriptor.Uninstall.
func TestDriftAddedPartitionsCarryEnvelopes(t *testing.T) {
	cfg := testConfig()
	tc := startDriftCluster(t, 16000, 3, cfg)
	names := tc.data.Names()
	for i := 0; i < cfg.Window; i++ {
		tc.serve(t, sqlrew.BoxSQL(names, tc.hist[i%len(tc.hist)].Box))
	}
	drifted := rightBoxes(cfg.Window, 99)
	for _, b := range drifted {
		tc.serve(t, sqlrew.BoxSQL(names, b))
	}
	rep, err := tc.ctl.TriggerNow(context.Background())
	if err != nil || !rep.Migrated || rep.Added == 0 {
		t.Fatalf("drifted traffic must migrate: %+v, %v", rep, err)
	}

	served := tc.master.Router().Layout()
	if served != tc.ctl.layout() {
		t.Fatal("the master does not serve the controller's patched layout")
	}
	after := make([][]geom.Box, len(served.Parts))
	for i, p := range served.Parts {
		after[i] = p.Precise
	}
	// Materialising the served layout (nothing is in flight) installs the
	// envelopes of fresh tables: what the cutover left must equal them.
	blockstore.Materialize(served, tc.data, storeConfig)
	added := 0
	for i, p := range served.Parts {
		if len(after[i]) != len(p.Precise) || len(p.Precise) == 1 && !after[i][0].Equal(p.Precise[0]) {
			t.Fatalf("partition %d: descriptor %v after the cutover, a fresh table's envelope is %v", p.ID, after[i], p.Precise)
		}
		added += len(p.Precise)
	}
	if added == 0 {
		t.Fatal("no partition carries an envelope")
	}
	if err := invariant.CheckRouting(served, invariant.Inputs{Data: tc.data, Domain: tc.data.Domain(), Seed: cfg.Seed}); err != nil {
		t.Fatal(err)
	}

	statements := append(append([]geom.Box{}, drifted...), tc.hist.Boxes()...)
	type answer struct {
		rows  int
		bytes int64
	}
	serveAll := func() []answer {
		tc.master.InvalidateCaches()
		out := make([]answer, len(statements))
		for i, b := range statements {
			resp := tc.serve(t, sqlrew.BoxSQL(names, b))
			out[i] = answer{resp.Rows, resp.BytesScanned}
		}
		return out
	}
	with := serveAll()
	descriptor.Uninstall(served)
	if without := serveAll(); !reflect.DeepEqual(with, without) {
		t.Fatal("answers or bytes read differ with the envelopes and after descriptor.Uninstall")
	}
}
