package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paw/internal/layout"
	"paw/internal/placement"
	"paw/internal/router"
)

// Partition migration (DESIGN.md §13): the drift re-partitioner hands the
// master a Migration — the next layout's router and placement plus one
// install step per partition — and ApplyMigration executes it without
// stopping service. Install steps land one by one; the query path
// double-routes the whole time (planFor) and serves a query from the next
// epoch only once every partition its plan touches is installed. When all
// steps have landed the master cuts over atomically, sweeps the result cache
// per partition (renamed entries are translated, entries touching the
// rebuilt region are dropped), waits for in-flight old-epoch queries to
// drain, and retires the old epoch on the workers. Any install failure
// aborts: the next epoch is torn down best-effort and the old placement
// keeps serving — a migration either cuts over completely or not at all.

// MigrationEntry installs one partition of the next layout on its replica
// set.
type MigrationEntry struct {
	// ID is the partition in the next layout's numbering.
	ID layout.ID
	// Workers is the replica set to install on (placement of the next
	// layout; must match Replicas[ID]).
	Workers []int
	// ReuseID, when >= 0, aliases the current epoch's partition ReuseID:
	// the partition survived the patch unchanged, so every worker that
	// holds it just learns the new name — zero bytes move. When < 0 the
	// Payload carries the encoded column-store table.
	ReuseID layout.ID
	// Payload is the colstore-encoded table for a rebuilt partition
	// (ReuseID < 0).
	Payload []byte
	// Rows is the partition's row count, cross-checked on the worker.
	Rows int64
}

// Migration is one epoch transition: the next layout (as a router), its
// placement, and the per-partition install plan.
type Migration struct {
	// Epoch is the target layout epoch; must be exactly the served epoch+1.
	Epoch uint64
	// Router routes over the next layout.
	Router *router.Master
	// Replicas places every next-layout partition on the fixed worker
	// fleet.
	Replicas placement.Replicated
	// Entries is the install plan, one entry per next-layout partition.
	Entries []MigrationEntry
	// Renamed maps current-epoch partition IDs to next-epoch IDs for the
	// partitions that survived unchanged — the cutover cache sweep's
	// translation table.
	Renamed map[layout.ID]layout.ID
}

// activeMigration is the master's in-progress migration state: the next
// routing view plus per-partition readiness, consulted by planFor on every
// query while the migration runs.
type activeMigration struct {
	mig   *Migration
	view  *routeView
	ready map[layout.ID]*atomic.Bool
}

// planReady reports whether every partition the plan touches has been
// installed on its replica set.
func (am *activeMigration) planReady(plan router.Plan) bool {
	for _, rp := range plan.Ranges {
		for _, id := range rp.Parts {
			f := am.ready[id]
			if f == nil || !f.Load() {
				return false
			}
		}
	}
	return true
}

// validate cross-checks the migration against the master's fleet and the
// served epoch before any install goes out.
func (m *Master) validateMigration(mig *Migration) error {
	cur := m.view.Load()
	if mig == nil || mig.Router == nil {
		return errors.New("dist: nil migration")
	}
	if mig.Epoch != cur.epoch+1 {
		return fmt.Errorf("dist: migration targets epoch %d, master serves %d", mig.Epoch, cur.epoch)
	}
	nl := mig.Router.Layout()
	workers := m.NumWorkers()
	if err := mig.Replicas.Validate(nl, workers); err != nil {
		return fmt.Errorf("dist: migration placement: %w", err)
	}
	seen := make(map[layout.ID]bool, len(mig.Entries))
	for _, e := range mig.Entries {
		if int(e.ID) < 0 || int(e.ID) >= len(nl.Parts) {
			return fmt.Errorf("dist: migration entry for unknown partition %d", e.ID)
		}
		if seen[e.ID] {
			return fmt.Errorf("dist: duplicate migration entry for partition %d", e.ID)
		}
		seen[e.ID] = true
		if len(e.Workers) == 0 {
			return fmt.Errorf("dist: migration entry %d has no workers", e.ID)
		}
		for _, w := range e.Workers {
			if w < 0 || w >= workers {
				return fmt.Errorf("dist: migration entry %d names worker %d of %d", e.ID, w, workers)
			}
		}
		if !sameWorkers(e.Workers, mig.Replicas[e.ID]) {
			return fmt.Errorf("dist: migration entry %d installs on workers %v, the placement routes it to %v", e.ID, e.Workers, mig.Replicas[e.ID])
		}
		if e.ReuseID >= 0 && mig.Renamed[e.ReuseID] != e.ID {
			return fmt.Errorf("dist: migration entry %d reuses %d but Renamed maps it to %d", e.ID, e.ReuseID, mig.Renamed[e.ReuseID])
		}
	}
	for _, p := range nl.Parts {
		if !seen[p.ID] {
			return fmt.Errorf("dist: migration has no entry for partition %d", p.ID)
		}
	}
	return nil
}

// ApplyMigration executes one epoch transition (see the package comment
// above for the protocol). Only one migration may run at a time; the master
// keeps serving throughout. On error the old placement is untouched and
// still serving — there is no partial cutover.
func (m *Master) ApplyMigration(ctx context.Context, mig *Migration) error {
	if err := m.validateMigration(mig); err != nil {
		return err
	}
	cur := m.view.Load()
	am := &activeMigration{
		mig: mig,
		view: &routeView{
			router:   mig.Router,
			replicas: mig.Replicas,
			epoch:    mig.Epoch,
		},
		ready: make(map[layout.ID]*atomic.Bool, len(mig.Entries)),
	}
	for _, e := range mig.Entries {
		am.ready[e.ID] = new(atomic.Bool)
	}
	if !m.mig.CompareAndSwap(nil, am) {
		return errors.New("dist: a migration is already in progress")
	}

	// Install deterministically in ID order: renamed partitions become
	// servable first at near-zero cost, so double-routing starts paying off
	// while the rebuilt region's payloads are still shipping.
	entries := append([]MigrationEntry(nil), mig.Entries...)
	sort.Slice(entries, func(i, j int) bool {
		if (entries[i].ReuseID >= 0) != (entries[j].ReuseID >= 0) {
			return entries[i].ReuseID >= 0
		}
		return entries[i].ID < entries[j].ID
	})
	for i := range entries {
		e := &entries[i]
		req := AdminRequest{
			Op:         AdminInstall,
			Epoch:      mig.Epoch,
			ID:         e.ID,
			ReuseEpoch: cur.epoch,
			ReuseID:    e.ReuseID,
			Rows:       e.Rows,
		}
		if e.ReuseID < 0 {
			req.Payload = e.Payload
			m.m.migratedPartitions.Inc()
			m.m.migratedBytes.Add(int64(len(e.Payload)))
		} else {
			m.m.reusedPartitions.Inc()
		}
		for _, w := range e.Workers {
			wreq := req
			if e.ReuseID >= 0 && len(e.Payload) > 0 && !workerHolds(cur.replicas[e.ReuseID], w) {
				// Hybrid entry (a rebalance move): this worker does not hold
				// the source partition under the current epoch, so it gets
				// the payload; workers that already hold it alias for free.
				wreq.ReuseID = -1
				wreq.Payload = e.Payload
				m.m.migratedBytes.Add(int64(len(e.Payload)))
			}
			if err := m.adminCall(ctx, w, wreq); err != nil {
				m.abortMigration(am)
				return fmt.Errorf("dist: installing partition %d (epoch %d) on worker %d: %w", e.ID, mig.Epoch, w, err)
			}
		}
		am.ready[e.ID].Store(true)
	}

	// Cutover: swap the served view, then translate the result cache. The
	// order matters — a query that routed against the old view concurrently
	// with the swap may still Put into the cache, which is why the serving
	// path re-checks the current view before caching and entries carry their
	// epoch.
	m.view.Store(am.view)
	m.mig.Store(nil)
	m.sweepCaches(mig)
	m.m.migrations.Inc()
	m.m.layoutEpoch.Set(int64(mig.Epoch))

	m.retireView(cur)
	return nil
}

// retireView retires a view that has stopped being routable — the old epoch
// after a cutover, the half-installed next epoch after an abort — once no
// query pinned to it (planFor) is still in flight: the unpin of the last one
// wakes it. A timer at drainTimeout bounds the wait, so a wedged query cannot
// pin an epoch forever.
func (m *Master) retireView(v *routeView) {
	v.drained = make(chan struct{}, 1)
	if v.inflight.Add(-retiring) != -retiring {
		t := m.clock.AfterFunc(drainTimeout, func() { v.drained <- struct{}{} })
		<-v.drained
		t.Stop()
	}
	if n := v.inflight.Load() + retiring; n > 0 {
		m.m.drainTimeouts.Inc()
		slog.Warn("epoch drain timed out, retiring anyway",
			"epoch", v.epoch, "inflight", n, "timeout", drainTimeout)
	}
	m.retireEpoch(v.epoch)
}

// workerHolds reports whether w appears in the replica set ws.
func workerHolds(ws []int, w int) bool {
	for _, h := range ws {
		if h == w {
			return true
		}
	}
	return false
}

// abortMigration tears down a failed migration: double-routing stops, the
// old placement keeps serving, and the half-installed next epoch is retired
// best-effort so workers do not leak tables.
func (m *Master) abortMigration(am *activeMigration) {
	m.mig.Store(nil)
	m.m.migrationsAborted.Inc()
	m.retireView(am.view)
	slog.Warn("migration aborted, old placement keeps serving",
		"epoch", am.view.epoch)
}

// retireEpoch asks the workers to drop a layout epoch, best-effort and all at
// once under one shared 1s bound. Slots the fleet knows to be gone — never
// joined (no address), declared Dead, or Left — are skipped rather than
// dialed: a departed worker has no views left to retire, and a dead one drops
// them when it restarts.
func (m *Master) retireEpoch(epoch uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	f := m.fleet.Load()
	var wg sync.WaitGroup
	for w, addr := range f.addrs {
		if addr == "" || f.isDown(w) {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := m.adminCall(ctx, w, AdminRequest{Op: AdminRetire, Epoch: epoch}); err != nil {
				slog.Debug("epoch retire failed", "worker", w, "epoch", epoch, "err", err)
			}
		}(w)
	}
	wg.Wait()
}

// adminCall performs one admin RPC against worker w, discarding the
// response body.
func (m *Master) adminCall(ctx context.Context, w int, req AdminRequest) error {
	_, err := m.adminCallResp(ctx, w, req)
	return err
}

// adminCallResp performs one admin RPC against worker w with bounded retries
// under the query path's backoff, returning the worker's response (AdminFetch
// answers carry the encoded partition). It deliberately bypasses the
// breakers — a migration install is not query serving, and its failure
// handling is "abort the migration", not "fail over".
func (m *Master) adminCallResp(ctx context.Context, w int, req AdminRequest) (AdminResponse, error) {
	req.Seq = m.seq.Add(1)
	qd, _ := ctx.Deadline()
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return AdminResponse{}, err
		}
		by := m.callDeadline(qd, time.Now())
		var resp AdminResponse
		l, err := m.workerLink(ctx, by, w)
		if err == nil {
			err = l.admin(ctx, by, &req, &resp)
		}
		if err == nil && resp.Err != "" {
			// The worker executed and refused (bad payload, unknown alias):
			// retrying cannot help.
			return resp, errors.New(resp.Err)
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
		m.linkFailed(ctx, w, l, err)
		if ctx.Err() != nil {
			return AdminResponse{}, lastErr
		}
		if serr := sleepCtx(ctx, m.clock, m.jit.backoff(attempt)); serr != nil {
			return AdminResponse{}, lastErr
		}
	}
	return AdminResponse{}, lastErr
}

// sweepCaches runs the per-partition cache invalidation at cutover, one pass
// over the result cache. An entry answered under the outgoing epoch whose
// partitions all survived the patch is kept, its plan translated through the
// rename map (the mapping is strictly increasing, so sorted partition lists
// stay sorted): renamed partitions hold identical rows and bytes, so the
// cached response is still exact. Entries touching the rebuilt region or
// answered under any other epoch are dropped.
func (m *Master) sweepCaches(mig *Migration) {
	if m.resultCache == nil {
		return
	}
	m.resultCache.Sweep(func(_ string, e cachedResult) (cachedResult, bool) {
		if e.epoch+1 == mig.Epoch {
			if plan, ok := translatePlan(e.plan, mig.Renamed); ok {
				m.m.cacheRemapped.Inc()
				return cachedResult{resp: e.resp, plan: plan, epoch: mig.Epoch}, true
			}
		}
		m.m.cacheSwept.Inc()
		return e, false
	})
}

// translatePlan rewrites a routed plan's partition IDs into the next
// layout's numbering. It fails (ok=false) when any range touches a partition
// that did not survive the patch.
func translatePlan(plan router.Plan, renamed map[layout.ID]layout.ID) (router.Plan, bool) {
	out := router.Plan{Ranges: make([]router.RangePlan, len(plan.Ranges))}
	for i, rp := range plan.Ranges {
		nr := router.RangePlan{Range: rp.Range, Parts: make([]layout.ID, len(rp.Parts))}
		for j, id := range rp.Parts {
			nid, ok := renamed[id]
			if !ok {
				return router.Plan{}, false
			}
			nr.Parts[j] = nid
		}
		out.Ranges[i] = nr
	}
	return out, true
}
