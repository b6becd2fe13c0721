package dist

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"paw/internal/layout"
	"paw/internal/membership"
)

// Live rebalancing (DESIGN.md §15): when the member set changes, the master
// recomputes the consistent-hash target placement and ships only the delta
// through the epoch-versioned migration machinery. The layout does not
// change — every partition keeps its ID (identity rename) — so the whole
// rebalance is one epoch bump in which unmoved partitions alias for free and
// moved partitions ship their encoded payload to the new holders. Queries
// double-route throughout and any install failure aborts with the old
// placement untouched, exactly like a drift migration.

// RebalanceReport summarises one rebalance round.
type RebalanceReport struct {
	// Epoch is the layout epoch serving after the round.
	Epoch uint64
	// Workers is the placeable member count the target was computed for.
	Workers int
	// Partitions is the total partition count of the layout.
	Partitions int
	// MovedPartitions / MovedBytes is the data this round actually shipped.
	MovedPartitions int
	MovedBytes      int64
	// ReusedPartitions stayed put (alias-only installs).
	ReusedPartitions int
}

// Rebalance computes the minimal-movement delta between the current
// placement and the consistent-hash target over the placeable members, and
// applies it as one migration. A no-op delta returns immediately without
// burning an epoch. Requires EnableMembership.
func (m *Master) Rebalance(ctx context.Context) (RebalanceReport, error) {
	ms := m.member.Load()
	if ms == nil {
		return RebalanceReport{}, fmt.Errorf("dist: membership is not enabled on this master")
	}
	ms.rebalanceMu.Lock()
	defer ms.rebalanceMu.Unlock()
	ms.mu.Lock()
	ms.lastRebalance = time.Now()
	ms.mu.Unlock()

	view := ms.tracker.View()
	placeable := view.Placeable()
	if len(placeable) == 0 {
		return RebalanceReport{}, fmt.Errorf("dist: no placeable members to rebalance onto")
	}
	reachable := make(map[int]bool)
	for _, w := range view.Reachable() {
		reachable[w] = true
	}

	curView := m.view.Load()
	l := curView.router.Layout()
	ids := make([]layout.ID, len(l.Parts))
	for i, p := range l.Parts {
		ids[i] = p.ID
	}
	want := membership.RingPlacement(ids, placeable, min(ms.replicas, len(placeable)))
	plan := membership.PlanRebalance(ids, curView.replicas, want,
		func(w int) bool { return reachable[w] })

	report := RebalanceReport{
		Epoch:            curView.epoch,
		Workers:          len(placeable),
		Partitions:       len(ids),
		MovedPartitions:  plan.MovedPartitions,
		ReusedPartitions: plan.ReusedPartitions,
	}
	for _, mv := range plan.Moves {
		report.MovedBytes += l.Parts[mv.ID].Bytes() * int64(len(mv.Gain))
	}
	if len(plan.Moves) == 0 && placementsEqual(curView.replicas, want) {
		return report, nil // already balanced: no epoch bump, no thrash
	}

	// Fetch every moved partition's payload before any install goes out, so
	// a missing source aborts the round with zero cutover risk.
	moved := make(map[layout.ID][]byte, len(plan.Moves))
	for _, mv := range plan.Moves {
		payload, rows, err := m.fetchPartition(ctx, curView, mv.ID, reachable, ms.cfg.PayloadSource)
		if err != nil {
			return report, fmt.Errorf("dist: rebalance aborted before any cutover: %w", err)
		}
		if full := l.Parts[mv.ID].FullRows; rows != full {
			return report, fmt.Errorf("dist: rebalance aborted before any cutover: partition %d fetched %d rows, layout says %d", mv.ID, rows, full)
		}
		moved[mv.ID] = payload
	}

	renamed := make(map[layout.ID]layout.ID, len(ids))
	entries := make([]MigrationEntry, 0, len(ids))
	for _, id := range ids {
		renamed[id] = id
		entries = append(entries, MigrationEntry{
			ID:      id,
			Workers: want[id],
			ReuseID: id,
			Payload: moved[id], // nil for unmoved partitions
			Rows:    l.Parts[id].FullRows,
		})
	}
	mig := &Migration{
		Epoch:    curView.epoch + 1,
		Router:   curView.router,
		Replicas: want,
		Entries:  entries,
		Renamed:  renamed,
	}
	if err := m.ApplyMigration(ctx, mig); err != nil {
		return report, err
	}
	report.Epoch = mig.Epoch
	m.m.rebalances.Inc()
	m.m.rebalanceMovedParts.Add(int64(plan.MovedPartitions))
	m.m.rebalanceMovedBytes.Add(report.MovedBytes)
	slog.Info("rebalance complete",
		"epoch", mig.Epoch, "workers", len(placeable),
		"moved_partitions", plan.MovedPartitions, "moved_bytes", report.MovedBytes,
		"reused", plan.ReusedPartitions)
	return report, nil
}

// fetchPartition retrieves a partition's colstore-encoded payload from a
// reachable current holder, falling back to the configured PayloadSource
// (the master's own dataset copy) when every replica is gone.
func (m *Master) fetchPartition(ctx context.Context, v *routeView, id layout.ID, reachable map[int]bool, fallback func(layout.ID) ([]byte, int64, error)) ([]byte, int64, error) {
	var lastErr error
	for _, w := range v.replicas[id] {
		if !reachable[w] {
			continue
		}
		resp, err := m.adminCallResp(ctx, w, AdminRequest{Op: AdminFetch, Epoch: v.epoch, ID: id})
		if err != nil {
			lastErr = err
			continue
		}
		return resp.Payload, resp.Rows, nil
	}
	if fallback != nil {
		payload, rows, err := fallback(id)
		if err == nil {
			return payload, rows, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return nil, 0, fmt.Errorf("partition %d has no reachable holder: %w", id, lastErr)
	}
	return nil, 0, fmt.Errorf("partition %d has no reachable holder", id)
}

// placementsEqual reports whether two placements assign identical replica
// sets (order-insensitive) to every partition.
func placementsEqual(a, b map[layout.ID][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ws := range a {
		vs, ok := b[id]
		if !ok || len(ws) != len(vs) {
			return false
		}
		x := append([]int(nil), ws...)
		y := append([]int(nil), vs...)
		sort.Ints(x)
		sort.Ints(y)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}
