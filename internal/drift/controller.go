package drift

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"

	"paw/internal/colstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/geom"
	"paw/internal/invariant"
	"paw/internal/layout"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/trace"
	"paw/internal/workload"
)

// Controller is the acting half: it feeds the monitor from the master's
// query observer and, when the monitor triggers, rebuilds the violated
// region of the serving layout and migrates the cluster onto the patch.
//
// The controller holds the full dataset — this repository's 1/1000-scale
// stand-in for reading the affected partitions' rows back from the workers.
// Everything else it needs it takes from the master (current layout,
// placement, epoch) at trigger time, so a controller constructed once stays
// correct across its own migrations.
type Controller struct {
	cfg    Config
	master *dist.Master
	data   *dataset.Dataset
	// builder encodes migration payloads in the store's physical row order.
	builder *colstore.Builder
	mon     *Monitor

	// mu serializes the trigger pipeline; the master's ApplyMigration
	// rejects overlap anyway, but one pipeline at a time keeps cur coherent.
	// cur is atomic because the observer hook reads it on the serving path
	// while TriggerNow holds mu — taking mu there would deadlock the
	// migration drain against the queries it waits for.
	mu  sync.Mutex
	cur atomic.Pointer[layout.Layout]

	auto    atomic.Bool
	running atomic.Bool

	// inst is the obs instrument set (never nil; the zero set is a no-op).
	inst atomic.Pointer[driftInstruments]

	// tracer, when set, records every migration pipeline run as a trace
	// (stage spans: rebuild, benefit gate, validate, cutover) into the same
	// ring the query traces land in. Migrations are rare, so they are always
	// sampled.
	tracer atomic.Pointer[trace.Tracer]
}

// Report is the outcome of one trigger evaluation (and, when it fired, the
// migration that followed).
type Report struct {
	Decision Decision
	// Triggered is true when the monitor fired (whether or not a migration
	// followed — see SkipReason).
	Triggered bool
	// Migrated is true when a migration was applied successfully.
	Migrated bool
	// SkipReason explains a triggered-but-not-migrated outcome (benefit
	// gate, validation, conservation failure).
	SkipReason string
	// Epoch is the layout epoch after the report (unchanged when not
	// migrated).
	Epoch uint64
	// Renamed/Added/Removed are the patch diff sizes.
	Renamed, Added, Removed int
	// MovedBytes is the total payload volume shipped to workers.
	MovedBytes int64
	// CostBefore/CostAfter are the window's modeled scan cost under the old
	// and the patched layout (the benefit gate's evidence).
	CostBefore, CostAfter int64
}

// New builds a controller for a serving master. data must be the dataset the
// cluster's layout was materialised from, builder the workers' store's
// (blockstore.Config.Builder), so that a rebuilt partition ships laid out like
// a materialised one. The monitor's scope is the one the served layout
// carries: its QH is the initial reference, its δ the threshold.
func New(m *dist.Master, data *dataset.Dataset, builder *colstore.Builder, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	l := m.Router().Layout()
	c := &Controller{
		cfg:     cfg,
		master:  m,
		data:    data,
		builder: builder,
		mon:     NewMonitor(workload.FromBoxes(l.Hist), l.Delta, cfg),
	}
	c.cur.Store(l)
	c.inst.Store(&driftInstruments{})
	return c
}

// SetTracer installs (or, with nil, removes) the tracer migration traces
// are recorded into — typically the same tracer the master samples queries
// into, so /traces interleaves both.
func (c *Controller) SetTracer(tr *trace.Tracer) { c.tracer.Store(tr) }

// Attach installs the controller as the master's query observer. With auto
// true, every cfg.CheckEvery observations the controller evaluates the
// monitor and runs the migration pipeline in a background goroutine when it
// triggers; with auto false the caller drives TriggerNow explicitly
// (deterministic tests).
func (c *Controller) Attach(auto bool) {
	c.auto.Store(auto)
	c.master.SetQueryObserver(func(ob dist.QueryObservation) {
		c.mon.Observe(ob)
		if c.auto.Load() && c.mon.Seen()%int64(c.cfg.CheckEvery) == 0 {
			if c.running.CompareAndSwap(false, true) {
				go func() {
					defer c.running.Store(false)
					if _, err := c.TriggerNow(context.Background()); err != nil {
						slog.Warn("drift migration failed", "err", err)
					}
				}()
			}
		}
	})
}

// Detach removes the observer hook.
func (c *Controller) Detach() {
	c.auto.Store(false)
	c.master.SetQueryObserver(nil)
}

// TriggerNow evaluates the monitor and, if it fires, runs the full rebuild +
// migration pipeline synchronously. The no-trigger case returns a Report
// with Triggered false and a nil error. An error means a migration was
// attempted and failed; the master is then still serving the old placement
// (ApplyMigration has no partial cutover).
func (c *Controller) TriggerNow(ctx context.Context) (Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inst.Load().checks.Inc()

	rep := Report{Epoch: c.master.Epoch()}
	rep.Decision = c.mon.Evaluate()
	if !rep.Decision.Trigger {
		c.inst.Load().publish(rep)
		return rep, nil
	}
	rep.Triggered = true
	c.inst.Load().triggers.Inc()

	err := c.migrate(ctx, &rep)
	if err == nil && !rep.Migrated {
		// Triggered but skipped (benefit gate): cool down for one window so
		// the same window cannot re-trigger every CheckEvery observations.
		c.inst.Load().skips.Inc()
		c.mon.MuteFor(c.cfg.Window)
	}
	c.inst.Load().publish(rep)
	return rep, err
}

// migrate runs the pipeline under an always-sampled migration trace when a
// tracer is installed (migrations are rare and each one matters); the trace
// lands in the same ring as the query traces.
func (c *Controller) migrate(ctx context.Context, rep *Report) error {
	tr := c.tracer.Load()
	tm := tr.Sample(true)
	root := tm.Start("drift_migration", trace.SpanRef{})
	err := c.runMigration(ctx, rep, tm, root)
	if tm != nil {
		root.Int(trace.KeyEpoch, int64(rep.Epoch))
		root.Int(trace.KeyPartitions, int64(rep.Renamed+rep.Added))
		if err != nil {
			root.Int(trace.KeyError, 1)
		}
		root.End()
		tr.Finish(tm)
	}
	return err
}

// runMigration runs region rebuild → patch → payload build → benefit gate →
// oracle validation → migration. It mutates rep as it goes;
// rep.Migrated is set only after ApplyMigration returns.
func (c *Controller) runMigration(ctx context.Context, rep *Report, tm *trace.T, root trace.SpanRef) error {
	live := c.mon.Window()
	liveBoxes := live.Boxes()

	// The rebuild target: the smallest rectangular subtree containing every
	// out-of-scope query. Clip to the domain first — drifted queries may
	// reach outside it, where there is nothing to reorganize.
	cur := c.cur.Load()
	domain := cur.Root.Desc.MBR()
	region := rep.Decision.Region.Clip(domain)
	target := cur.SubtreeFor(region)
	if target == nil {
		return fmt.Errorf("drift: layout has no tree")
	}

	rsp := tm.Start("rebuild", root)
	newL, diff, payloadRows, err := c.rebuild(cur, target, live)
	if err != nil {
		rsp.Int(trace.KeyError, 1)
		rsp.End()
		return err
	}
	rsp.Int(trace.KeyPartitions, int64(len(diff.Added)))
	rsp.End()
	rep.Renamed, rep.Added, rep.Removed = len(diff.Renamed), len(diff.Added), len(diff.Removed)

	bsp := tm.Start("build_payload", root)
	mig, moved, err := c.buildMigration(newL, diff, payloadRows)
	if err != nil {
		bsp.Int(trace.KeyError, 1)
		bsp.End()
		return err
	}
	bsp.Int(trace.KeyBytesRead, moved)
	bsp.End()

	// Benefit gate: the patch must actually cut the live window's modeled
	// scan cost. Rebuilding for out-of-scope queries that the new layout
	// would serve no better only churns the cluster. It runs after the
	// payloads are built because the modeled cost honours the partitions'
	// data envelopes: the current layout's are installed, and the added
	// partitions get theirs from their payload tables — compared before
	// that, a rebuild over attributes with few distinct values would look
	// costlier than the layout it improves on.
	rep.CostBefore = cur.WorkloadCost(liveBoxes, nil)
	rep.CostAfter = newL.WorkloadCost(liveBoxes, nil)
	if rep.CostBefore <= 0 ||
		float64(rep.CostBefore-rep.CostAfter) < c.cfg.MinGain*float64(rep.CostBefore) {
		rep.SkipReason = fmt.Sprintf("benefit gate: window cost %d → %d, below min gain %.0f%%",
			rep.CostBefore, rep.CostAfter, c.cfg.MinGain*100)
		return nil
	}

	// The drift and cutover oracles check every patch before it ships.
	vsp := tm.Start("validate", root)
	if verr := invariant.CheckDrift(cur, newL, diff, c.cfg.Seed); verr != nil {
		vsp.Int(trace.KeyError, 1)
		vsp.End()
		rep.SkipReason = "drift oracle rejected the patch"
		return fmt.Errorf("drift: patch validation: %w", verr)
	}
	if verr := invariant.CheckCutover(newL, diff, migrationSteps(mig)); verr != nil {
		vsp.Int(trace.KeyError, 1)
		vsp.End()
		rep.SkipReason = "cutover oracle rejected the plan"
		return fmt.Errorf("drift: plan validation: %w", verr)
	}
	vsp.End()

	// The patched layout states the scope it will be monitored against: the
	// old reference plus what was just observed, at the same δ. The old
	// reference keeps the queries the rebuild did not invalidate.
	newL.Delta, newL.Hist = cur.Delta, append(slices.Clone(cur.Hist), liveBoxes...)
	csp := tm.Start("cutover", root)
	if err := c.master.ApplyMigration(ctx, mig); err != nil {
		csp.Int(trace.KeyError, 1)
		csp.End()
		return err
	}
	csp.End()
	rep.Migrated = true
	rep.Epoch = mig.Epoch
	rep.MovedBytes = moved
	ins := c.inst.Load()
	ins.migrations.Inc()
	ins.movedBytes.Add(moved)

	// The cluster now serves the patched layout; the monitor re-anchors on
	// the scope it carries.
	c.cur.Store(newL)
	c.mon.Reanchor(workload.FromBoxes(newL.Hist))
	c.mon.MuteFor(c.cfg.Window)
	return nil
}

// rebuild constructs the replacement subtree for target within cur's scope
// and patches it into cur. It returns the patched layout, the diff, and the
// full-data row indices of every added partition (the migration payloads).
//
// The pipeline is offline construction at region scale, the two calls
// `pawcli build` makes for the domain: core.Build with the §IV-E refinement
// on a seeded sample of the region's rows, over the live window plus the
// still-relevant slice of the reference workload, then every region row
// routed through the result for exact partition sizes.
func (c *Controller) rebuild(cur *layout.Layout, target *layout.Node, live workload.Workload) (*layout.Layout, layout.Diff, map[layout.ID][]int, error) {
	// Every row the cluster routes into the target subtree must come out of
	// the rebuild in exactly one new partition — the migration's row
	// population is defined by old-layout routing, not by geometry, so
	// irregular siblings keep their rows.
	all := make([]int, c.data.NumRows())
	for i := range all {
		all[i] = i
	}
	byPart := cur.RouteIndices(c.data, all)
	var regionRows []int
	for _, leaf := range target.Leaves() {
		regionRows = append(regionRows, byPart[leaf.Part.ID]...)
	}
	if len(regionRows) == 0 {
		return nil, layout.Diff{}, nil, fmt.Errorf("drift: rebuild region holds no rows")
	}

	targetBox := target.Desc.MBR()
	wl := append(live.Clip(targetBox), workload.FromBoxes(cur.Hist).Clip(targetBox)...)

	sample := strideSample(regionRows, c.cfg.BuildSample)
	built := core.Build(c.data, sample, targetBox, wl, core.Params{
		MinRows:         c.cfg.BuildMinRows,
		Delta:           cur.Delta,
		DataAwareRefine: true,
		Parallelism:     c.cfg.Parallelism,
	})

	// Full-scale pass: Route restricted to the region sets every built
	// partition's exact FullRows.
	routed := 0
	for id, rows := range built.RouteIndices(c.data, regionRows) {
		built.Parts[id].FullRows = int64(len(rows))
		routed += len(rows)
	}
	if routed < len(regionRows) {
		// A region row the replacement cannot route would silently vanish
		// at cutover; refuse to build such a patch.
		return nil, layout.Diff{}, nil, fmt.Errorf("drift: replacement subtree routes %d of %d region rows", routed, len(regionRows))
	}

	newL, diff, err := layout.PatchSubtree(cur, target, built.Root)
	if err != nil {
		return nil, layout.Diff{}, nil, fmt.Errorf("drift: patching layout: %w", err)
	}

	// Row-conservation cross-check: routing the region's rows through the
	// patched layout must land them all in added partitions, with counts
	// matching what the full-scale pass recorded. Any mismatch means cutover
	// would lose or invent rows — abort before anything ships.
	newByPart := newL.RouteIndices(c.data, regionRows)
	addedSet := make(map[layout.ID]bool, len(diff.Added))
	payloadRows := make(map[layout.ID][]int, len(diff.Added))
	total := 0
	for _, id := range diff.Added {
		addedSet[id] = true
		rows := newByPart[id]
		if int64(len(rows)) != newL.Parts[id].FullRows {
			return nil, layout.Diff{}, nil, fmt.Errorf("drift: partition %d routes %d rows but carries FullRows=%d",
				id, len(rows), newL.Parts[id].FullRows)
		}
		payloadRows[id] = rows
		total += len(rows)
	}
	if total != len(regionRows) {
		return nil, layout.Diff{}, nil, fmt.Errorf("drift: region rebuild conserves %d of %d rows", total, len(regionRows))
	}
	for id := range newByPart {
		if !addedSet[id] {
			return nil, layout.Diff{}, nil, fmt.Errorf("drift: region row escaped into surviving partition %d", id)
		}
	}
	return newL, diff, payloadRows, nil
}

// buildMigration turns a patched layout + diff into the master's migration
// plan: surviving partitions keep their current replica sets and move zero
// bytes; added partitions ship colstore payloads, and the i-th of them takes
// the current replica set of removed partition i·len(Removed)/len(Added).
// Both lists ascend in leaf order, so the rebuilt region stays on the workers
// that served it, neighbours with neighbours, with the copy count the
// placement keeps there — never on a slot the placement does not use.
func (c *Controller) buildMigration(newL *layout.Layout, diff layout.Diff, payloadRows map[layout.ID][]int) (*dist.Migration, int64, error) {
	rm, err := router.NewMaster(newL, c.data.Names())
	if err != nil {
		return nil, 0, fmt.Errorf("drift: routing patched layout: %w", err)
	}
	curPlace := c.master.Placement()
	place := make(placement.Replicated, len(newL.Parts))
	entries := make([]dist.MigrationEntry, 0, len(newL.Parts))
	for oldID, newID := range diff.Renamed {
		ws := append([]int(nil), curPlace[oldID]...)
		place[newID] = ws
		entries = append(entries, dist.MigrationEntry{
			ID:      newID,
			Workers: ws,
			ReuseID: oldID,
			Rows:    newL.Parts[newID].FullRows,
		})
	}
	var moved int64
	for i, id := range diff.Added {
		ws := slices.Clone(curPlace[diff.Removed[i*len(diff.Removed)/len(diff.Added)]])
		place[id] = ws
		tab := c.builder.Build(payloadRows[id])
		// The added partition's data envelope, as blockstore.Materialize
		// sets it: surviving partitions carried theirs through the patch.
		if env, ok := tab.Envelope(); ok {
			newL.Parts[id].Precise = []geom.Box{env}
		}
		var buf bytes.Buffer
		if err := tab.Encode(&buf); err != nil {
			return nil, 0, fmt.Errorf("drift: encoding partition %d payload: %w", id, err)
		}
		moved += int64(buf.Len())
		entries = append(entries, dist.MigrationEntry{
			ID:      id,
			Workers: ws,
			ReuseID: -1,
			Payload: buf.Bytes(),
			Rows:    int64(len(payloadRows[id])),
		})
	}
	return &dist.Migration{
		Epoch:    c.master.Epoch() + 1,
		Router:   rm,
		Replicas: place,
		Entries:  entries,
		Renamed:  diff.Renamed,
	}, moved, nil
}

// migrationSteps projects a migration plan into the cutover oracle's view.
func migrationSteps(mig *dist.Migration) []invariant.MigrationStep {
	steps := make([]invariant.MigrationStep, 0, len(mig.Entries))
	for _, e := range mig.Entries {
		s := invariant.MigrationStep{ID: e.ID, Rows: e.Rows}
		if e.ReuseID >= 0 {
			s.Reused = true
			s.OldID = e.ReuseID
		} else {
			s.Bytes = int64(len(e.Payload))
		}
		steps = append(steps, s)
	}
	return steps
}

// strideSample picks at most k of rows with a deterministic even stride
// (rows are already in routing order, which is row order per partition).
func strideSample(rows []int, k int) []int {
	if len(rows) <= k {
		return append([]int(nil), rows...)
	}
	out := make([]int, 0, k)
	stride := float64(len(rows)) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, rows[int(float64(i)*stride)])
	}
	return out
}
