package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"paw/internal/layout"
	"paw/internal/membership"
)

// Live rebalancing (DESIGN.md §15): when the member set changes, the master
// recomputes the consistent-hash target placement and ships only the delta
// through the epoch-versioned migration machinery. The layout does not
// change — every partition keeps its ID (identity rename) — so the whole
// rebalance is one migration: ApplyMigration aliases each copy a worker
// already holds and ships every other one, fetched from a worker that holds
// the partition (the master keeps no data). Queries double-route throughout
// and any install failure aborts with the old placement untouched, exactly
// like a drift migration.

// ErrPartitionLost is wrapped by a fetch — a migration's, or a drift
// rebuild's reading its region back — that aborts because some partition it
// needs has no live holder. The placement and the epoch stay, so a holder that
// rejoins its slot with its store is taken (the master still serves the
// store's layout) and the next attempt fetches from it.
var ErrPartitionLost = errors.New("partition lost: no reachable worker holds a copy")

// lostError is a fetch's ErrPartitionLost: how many partitions have no live
// holder and the first 8 of their IDs, ascending — a line the auto-rebalance
// log prints, however many a dead worker held.
func lostError(lost []layout.ID) error {
	slices.Sort(lost)
	ids := fmt.Sprint(lost[:min(len(lost), 8)])
	if len(lost) > 8 {
		ids = ids[:len(ids)-1] + " …]"
	}
	return fmt.Errorf("%w: %d partitions %s", ErrPartitionLost, len(lost), ids)
}

// RebalanceReport summarises one rebalance round.
type RebalanceReport struct {
	// Epoch is the layout epoch serving after the round.
	Epoch uint64
	// Workers is the placeable member count the target was computed for.
	Workers int
	// Partitions is the total partition count of the layout.
	Partitions int
	// MovedPartitions / MovedBytes is what the round's migration shipped:
	// the copies installed from a payload and their encoded bytes, once per
	// copy; both are 0 unless the round cut over.
	MovedPartitions int
	MovedBytes      int64
	// ReusedPartitions stayed put: every worker of their target aliased them.
	ReusedPartitions int
}

// Rebalance migrates the current placement onto the consistent-hash target
// over the placeable members, as one migration that ships only the copies a
// worker lacks. A round that is already balanced returns at once without
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

// rebalance is Rebalance for a caller that holds ms.rebalanceMu. It hands
// ApplyMigration the ring target alone — every partition kept under its own
// ID, no payload — and reports what that migration shipped.
func (m *Master) rebalance(ctx context.Context, ms *membershipState) (RebalanceReport, error) {
	ms.mu.Lock()
	ms.lastRebalance = m.clock.Now()
	ms.mu.Unlock()

	placeable := ms.tracker.View().Placeable()
	if len(placeable) == 0 {
		return RebalanceReport{}, fmt.Errorf("dist: no placeable members to rebalance onto")
	}
	curView := m.view.Load()
	l := curView.router.Layout()
	ids := make([]layout.ID, len(l.Parts))
	for i, p := range l.Parts {
		ids[i] = p.ID
	}
	want := membership.RingPlacement(ids, placeable, min(ms.replicas, len(placeable)))
	report := RebalanceReport{Epoch: curView.epoch, Workers: len(placeable), Partitions: len(ids)}
	if placementsEqual(curView.replicas, want) {
		report.ReusedPartitions = len(ids)
		return report, nil // already balanced: no epoch bump, no thrash
	}

	renamed := make(map[layout.ID]layout.ID, len(ids))
	entries := make([]MigrationEntry, 0, len(ids))
	for _, id := range ids {
		renamed[id] = id
		entries = append(entries, MigrationEntry{ID: id, Workers: want[id], ReuseID: id, Rows: l.Parts[id].FullRows})
	}
	mig := &Migration{
		Epoch:    curView.epoch + 1,
		Router:   curView.router,
		Replicas: want,
		Entries:  entries,
		Renamed:  renamed,
	}
	out, err := m.applyMigration(ctx, mig)
	if err != nil {
		return report, err
	}
	report.Epoch, report.MovedPartitions, report.MovedBytes, report.ReusedPartitions = mig.Epoch, out.copies, out.bytes, out.reused
	m.m.rebalances.Inc()
	m.m.rebalanceMovedParts.Add(int64(out.copies))
	m.m.rebalanceMovedBytes.Add(out.bytes)
	slog.Info("rebalance complete",
		"epoch", mig.Epoch, "workers", len(placeable),
		"moved_partitions", out.copies, "moved_bytes", out.bytes, "reused", out.reused)
	return report, nil
}

// FetchPartitions returns the stored bytes of each partition of ids, by ID,
// from a live holder under the served epoch: one the membership view counts
// reachable or, with membership off, one whose link holds or dials a live
// connection. It is what a drift rebuild reads its region back with and what
// ApplyMigration ships a kept copy from. Every partition with no live holder
// is named, in an ErrPartitionLost, before anything is fetched, and one whose
// live holders all stop answering before its fetch (a holder can die after
// the liveness test) is lost too; a holder that refuses, or returns other
// than the layout's row count, is another error.
func (m *Master) FetchPartitions(ctx context.Context, ids []layout.ID) (map[layout.ID][]byte, error) {
	v := m.view.Load()
	probed := make(map[int]bool)
	live := func(w int) bool {
		ok, seen := probed[w]
		if !seen {
			_, err := m.slot(w).link.conn(ctx, m.callDeadline(time.Time{}, time.Now()))
			ok, probed[w] = err == nil, err == nil
		}
		return ok
	}
	if ms := m.member.Load(); ms != nil {
		reachable := ms.tracker.View().Reachable()
		live = func(w int) bool { return slices.Contains(reachable, w) }
	}
	holders := make([][]int, len(ids))
	var lost []layout.ID
	for i, id := range ids {
		for _, w := range v.replicas[id] {
			if live(w) {
				holders[i] = append(holders[i], w)
			}
		}
		if holders[i] == nil {
			lost = append(lost, id)
		}
	}
	if len(lost) > 0 {
		return nil, lostError(lost)
	}
	parts := v.router.Layout().Parts
	payloads := make(map[layout.ID][]byte, len(ids))
	for i, id := range ids {
		var resp AdminResponse
		var err error
		refused := false
		for _, w := range holders[i] {
			if resp, err = m.adminCallResp(ctx, w, AdminRequest{Op: AdminFetch, Epoch: v.epoch, ID: id}); err == nil {
				break
			}
			refused = refused || resp.Err != ""
		}
		switch {
		case err != nil && !refused && ctx.Err() == nil:
			return nil, fmt.Errorf("%w (%v)", lostError([]layout.ID{id}), err)
		case err != nil:
			return nil, fmt.Errorf("partition %d: no live holder answered the fetch: %w", id, err)
		}
		if resp.Rows != parts[id].FullRows {
			return nil, fmt.Errorf("partition %d fetched %d rows, layout says %d", id, resp.Rows, parts[id].FullRows)
		}
		payloads[id] = resp.Payload
	}
	return payloads, nil
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
