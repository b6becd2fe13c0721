package membership

import (
	"paw/internal/layout"
	"paw/internal/placement"
)

// The rebalance planner: given the placement the cluster serves today and
// the ring placement the surviving member set wants, emit the minimal
// movement that reconciles them. Every round migrates to the full target;
// a partition whose only copies sit on dead or draining members ships from
// the master's fallback source like any other move.

// Move is one partition whose replica set changes: the workers that must
// newly receive a copy.
type Move struct {
	ID layout.ID
	// Gain are the members that must receive a copy (payload or alias).
	Gain []int
}

// Plan is one rebalance round toward want: the moves it implies and the
// movement accounting the acceptance tests assert on.
type Plan struct {
	// Moves lists the partitions whose replica sets change, in ids order.
	Moves []Move
	// MovedPartitions totals the copies that must ship.
	MovedPartitions int
	// ReusedPartitions counts partitions whose sets are unchanged (or only
	// shrink onto copies that already exist) — zero bytes move for them.
	ReusedPartitions int
}

// PlanRebalance reconciles cur (the served placement) with want (the ring
// placement of the surviving member set). hosts reports whether a member
// still physically holds data and serves fetches (alive, suspect or
// draining — not dead). The result is deterministic for fixed inputs: moves
// follow the order of ids.
func PlanRebalance(ids []layout.ID, cur, want placement.Replicated, hosts func(w int) bool) Plan {
	if hosts == nil {
		hosts = func(int) bool { return true }
	}
	var plan Plan
	for _, id := range ids {
		holding := make(map[int]bool)
		for _, w := range cur[id] {
			if hosts(w) {
				holding[w] = true
			}
		}
		var gain []int
		for _, w := range want[id] {
			if !holding[w] {
				gain = append(gain, w)
			}
		}
		if len(gain) == 0 {
			// Every wanted copy already exists on a surviving member:
			// nothing ships, the entry merely renames/shrinks at cutover.
			plan.ReusedPartitions++
			continue
		}
		plan.Moves = append(plan.Moves, Move{ID: id, Gain: gain})
		plan.MovedPartitions += len(gain)
	}
	return plan
}
