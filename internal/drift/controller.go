package drift

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"

	"paw/internal/blockstore"
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
// The controller holds no rows: a rebuild reads its region's partitions back
// from the workers that hold them (dist.Master.FetchPartitions). Everything
// else it needs it takes from the master (current layout, placement, epoch)
// at trigger time, so a controller constructed once stays correct across its
// own migrations.
type Controller struct {
	cfg    Config
	master *dist.Master
	store  blockstore.Config // the workers': payloads are laid out like theirs
	mon    *Monitor

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
	// MovedBytes is the payload volume shipped to workers, once per copy.
	MovedBytes int64
	// CostBefore/CostAfter are the window's modeled scan cost under the old
	// and the patched layout (the benefit gate's evidence).
	CostBefore, CostAfter int64
}

// minGain is the benefit gate — the patch must cut the window's modeled scan
// cost by this fraction, or the migration is skipped — and oracleSeed seeds
// the drift oracle's probes of every patch.
const minGain, oracleSeed = 0.05, 1

// New builds a controller for a serving master whose workers' partitions were
// built with store, so that a rebuilt partition ships laid out like a
// materialised one. The monitor's scope is the one the served layout carries:
// its QH is the initial reference, its δ the threshold; a region is rebuilt
// with its recipe, and a layout that carries none is refused.
func New(m *dist.Master, store blockstore.Config, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	l := m.Router().Layout()
	if err := l.CheckRecipe(); err != nil {
		return nil, fmt.Errorf("drift: %w", err)
	}
	c := &Controller{
		cfg:    cfg,
		master: m,
		store:  store,
		mon:    NewMonitor(workload.FromBoxes(l.Hist), l.Delta, cfg),
	}
	c.cur.Store(l)
	c.inst.Store(&driftInstruments{})
	return c, nil
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
	if !rep.Migrated {
		// Skipped (benefit gate) or failed (a partition lost, an install
		// refused): cool down for one window, so the same window cannot
		// re-trigger every CheckEvery observations.
		if err == nil {
			c.inst.Load().skips.Inc()
		}
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
	newL, diff, held, payloadRows, err := c.rebuild(ctx, cur, target, live)
	if err != nil {
		rsp.Int(trace.KeyError, 1)
		rsp.End()
		return err
	}
	rsp.Int(trace.KeyPartitions, int64(len(diff.Added)))
	rsp.End()
	rep.Renamed, rep.Added, rep.Removed = len(diff.Renamed), len(diff.Added), len(diff.Removed)

	bsp := tm.Start("build_payload", root)
	mig, moved, err := c.buildMigration(newL, diff, held, payloadRows)
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
		float64(rep.CostBefore-rep.CostAfter) < minGain*float64(rep.CostBefore) {
		rep.SkipReason = fmt.Sprintf("benefit gate: window cost %d → %d, below min gain %.0f%%",
			rep.CostBefore, rep.CostAfter, minGain*100)
		return nil
	}

	// The drift and cutover oracles check every patch before it ships.
	vsp := tm.Start("validate", root)
	if verr := invariant.CheckDrift(cur, newL, diff, oracleSeed); verr != nil {
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
// and patches it into cur. It returns the patched layout, carrying cur's
// scope grown by live, the diff, the region's rows and which of them every
// added partition holds (the migration payloads).
//
// The region's rows are those its partitions' live holders return, partitions
// in ID order, each in stored order (none: dist.ErrPartitionLost). The
// subtree is core.Rebuild with cur's recipe over them, for the live window
// plus the still-relevant slice of the reference workload: the region is
// partitioned as the boot layout partitioned the domain, at the same bmin.
func (c *Controller) rebuild(ctx context.Context, cur *layout.Layout, target *layout.Node, live workload.Workload) (*layout.Layout, layout.Diff, *dataset.Dataset, map[layout.ID][]int, error) {
	var ids []layout.ID
	for _, leaf := range target.Leaves() {
		ids = append(ids, leaf.Part.ID)
	}
	payloads, err := c.master.FetchPartitions(ctx, ids)
	if err != nil {
		return nil, layout.Diff{}, nil, nil, fmt.Errorf("drift: reading the region back: %w", err)
	}
	cols := make([][]float64, len(cur.Names))
	for _, id := range ids {
		tab, err := colstore.Decode(bytes.NewReader(payloads[id]))
		if err == nil && tab.Dims() != len(cols) {
			err = fmt.Errorf("%d columns, the layout has %d", tab.Dims(), len(cols))
		}
		if err != nil {
			return nil, layout.Diff{}, nil, nil, fmt.Errorf("drift: partition %d: %w", id, err)
		}
		cols = tab.AppendColumns(cols)
	}
	region, err := dataset.New(cur.Names, cols)
	if err != nil {
		return nil, layout.Diff{}, nil, nil, fmt.Errorf("drift: reading the region back: %w", err)
	}
	targetBox := target.Desc.MBR()
	wl := append(live.Clip(targetBox), workload.FromBoxes(cur.Hist).Clip(targetBox)...)
	built, err := core.Rebuild(cur, region, targetBox, wl)
	if err != nil {
		return nil, layout.Diff{}, nil, nil, fmt.Errorf("drift: %w", err)
	}

	newL, diff, err := layout.PatchSubtree(cur, target, built.Root)
	if err != nil {
		return nil, layout.Diff{}, nil, nil, fmt.Errorf("drift: patching layout: %w", err)
	}
	// The patched layout states the scope it will be monitored against: the
	// old reference plus what was just observed, at the same δ. The old
	// reference keeps the queries the rebuild did not invalidate. The
	// payloads are tiled for that scope, as Materialize tiles newL's store.
	newL.Delta, newL.Hist = cur.Delta, append(slices.Clone(cur.Hist), live.Boxes()...)

	// Row-conservation cross-check: routing the region's rows through the
	// patched layout must land them all in added partitions, with counts
	// matching what the rebuild recorded (each row lands once at most, so
	// the total leaves none in a surviving partition). Any mismatch means
	// cutover would lose or invent rows — abort before anything ships.
	newByPart := newL.RouteIndices(region)
	payloadRows := make(map[layout.ID][]int, len(diff.Added))
	total := 0
	for _, id := range diff.Added {
		rows := newByPart[id]
		if int64(len(rows)) != newL.Parts[id].FullRows {
			return nil, layout.Diff{}, nil, nil, fmt.Errorf("drift: partition %d routes %d rows but carries FullRows=%d",
				id, len(rows), newL.Parts[id].FullRows)
		}
		payloadRows[id] = rows
		total += len(rows)
	}
	if total != region.NumRows() {
		return nil, layout.Diff{}, nil, nil, fmt.Errorf("drift: region rebuild conserves %d of %d rows", total, region.NumRows())
	}
	return newL, diff, region, payloadRows, nil
}

// buildMigration turns a patched layout + diff into the master's migration
// plan: surviving partitions keep their current replica sets and move zero
// bytes; added partitions ship colstore payloads, and the i-th of them takes
// the current replica set of removed partition i·len(Removed)/len(Added).
// Both lists ascend in leaf order, so the rebuilt region stays on the workers
// that served it, neighbours with neighbours, with the copy count the
// placement keeps there — never on a slot the placement does not use.
func (c *Controller) buildMigration(newL *layout.Layout, diff layout.Diff, region *dataset.Dataset, payloadRows map[layout.ID][]int) (*dist.Migration, int64, error) {
	rm, err := router.NewMaster(newL, newL.Names)
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
	builder, queries := c.store.Builder(region, newL), newL.ExtendedHist()
	for i, id := range diff.Added {
		ws := slices.Clone(curPlace[diff.Removed[i*len(diff.Removed)/len(diff.Added)]])
		place[id] = ws
		tab := builder.Build(payloadRows[id], queries)
		// The added partition's data envelope, as blockstore.Materialize
		// sets it: surviving partitions carried theirs through the patch.
		if env, ok := tab.Envelope(); ok {
			newL.Parts[id].Precise = []geom.Box{env}
		}
		var buf bytes.Buffer
		if err := tab.Encode(&buf); err != nil {
			return nil, 0, fmt.Errorf("drift: encoding partition %d payload: %w", id, err)
		}
		moved += int64(buf.Len()) * int64(len(ws))
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
