package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"

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
// placement untouched, exactly like a drift migration. Every payload comes
// from a worker that holds the partition: the master keeps no data.

// ErrPartitionLost is wrapped by a rebalance that aborts because some moved
// partition has no current holder the membership view counts as reachable.
// The placement stays, so a holder that rejoins its slot with its files
// passes the join checksum and the next round ships from it.
var ErrPartitionLost = errors.New("partition lost: no reachable worker holds a copy")

// RebalanceReport summarises one rebalance round.
type RebalanceReport struct {
	// Epoch is the layout epoch serving after the round.
	Epoch uint64
	// Workers is the placeable member count the target was computed for.
	Workers int
	// Partitions is the total partition count of the layout.
	Partitions int
	// MovedPartitions / MovedBytes is the data this round actually shipped:
	// MovedBytes sums the encoded payload of each moved partition once per
	// worker it was installed on, and is 0 unless the round cut over.
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
	return m.rebalance(ctx, ms)
}

// rebalance is Rebalance for a caller that holds ms.rebalanceMu.
func (m *Master) rebalance(ctx context.Context, ms *membershipState) (RebalanceReport, error) {
	ms.mu.Lock()
	ms.lastRebalance = m.clock.Now()
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
	if len(plan.Moves) == 0 && placementsEqual(curView.replicas, want) {
		return report, nil // already balanced: no epoch bump, no thrash
	}

	// Every move needs a reachable holder to ship from; name all that have
	// none before fetching anything.
	var lost []layout.ID
	for _, mv := range plan.Moves {
		if !slices.ContainsFunc(curView.replicas[mv.ID], func(w int) bool { return reachable[w] }) {
			lost = append(lost, mv.ID)
		}
	}
	if len(lost) > 0 {
		return report, fmt.Errorf("dist: rebalance aborted before any cutover: %w: partitions %v", ErrPartitionLost, lost)
	}

	// Fetch every moved partition's payload before any install goes out, so
	// a failed fetch aborts the round with zero cutover risk.
	moved := make(map[layout.ID][]byte, len(plan.Moves))
	var shipped int64
	for _, mv := range plan.Moves {
		payload, rows, err := m.fetchPartition(ctx, curView, mv.ID, reachable)
		if err != nil {
			return report, fmt.Errorf("dist: rebalance aborted before any cutover: %w", err)
		}
		if full := l.Parts[mv.ID].FullRows; rows != full {
			return report, fmt.Errorf("dist: rebalance aborted before any cutover: partition %d fetched %d rows, layout says %d", mv.ID, rows, full)
		}
		moved[mv.ID] = payload
		shipped += int64(len(payload)) * int64(len(mv.Gain))
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
	report.Epoch, report.MovedBytes = mig.Epoch, shipped
	m.m.rebalances.Inc()
	m.m.rebalanceMovedParts.Add(int64(plan.MovedPartitions))
	m.m.rebalanceMovedBytes.Add(report.MovedBytes)
	slog.Info("rebalance complete",
		"epoch", mig.Epoch, "workers", len(placeable),
		"moved_partitions", plan.MovedPartitions, "moved_bytes", report.MovedBytes,
		"reused", plan.ReusedPartitions)
	return report, nil
}

// fetchPartition retrieves a partition's colstore-encoded payload from the
// first reachable current holder that answers.
func (m *Master) fetchPartition(ctx context.Context, v *routeView, id layout.ID, reachable map[int]bool) ([]byte, int64, error) {
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
	return nil, 0, fmt.Errorf("partition %d: no reachable holder answered the fetch: %w", id, lastErr)
}

// placementsEqual reports whether two placements assign identical replica
// sets (order-insensitive) to every partition.
func placementsEqual(a, b map[layout.ID][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ws := range a {
		if vs, ok := b[id]; !ok || !sameWorkers(ws, vs) {
			return false
		}
	}
	return true
}

// sameWorkers reports whether two replica sets hold the same workers, in any
// order.
func sameWorkers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}
