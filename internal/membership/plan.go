package membership

import (
	"sort"

	"paw/internal/layout"
	"paw/internal/placement"
)

// The rebalance planner: given the placement the cluster serves today and
// the ring placement the surviving member set wants, emit the minimal
// movement that reconciles them. The cost function is the storage tuner's
// budget-greedy hottest-first shape (§V-B): moves are
// ordered by workload-weighted bytes, an optional byte budget defers the
// coldest moves to later rounds (incremental, serve-while-reorganizing),
// and moves forced by data safety — a partition whose only copies sit on
// dead or draining members — are exempt from the budget.

// Move is one partition whose replica set changes: the workers that must
// newly receive a copy and the workers that stop hosting one.
type Move struct {
	ID layout.ID
	// Gain are the members that must receive a copy (payload or alias).
	Gain []int
	// Drop are the members that stop hosting the partition at cutover.
	Drop []int
	// Bytes is the partition's encoded size times the copies shipped.
	Bytes int64
	// Forced marks a data-safety move: no placeable member holds a copy
	// today, so deferring it would leave the partition unreadable.
	Forced bool
}

// Plan is one rebalance round: the placement to migrate to (budget-deferred
// partitions keep their current sets), the moves it implies, and the
// movement accounting the acceptance tests assert on.
type Plan struct {
	// Target is the placement this round migrates to.
	Target placement.Replicated
	// Moves lists the partitions whose replica sets change, hottest first.
	Moves []Move
	// Deferred lists partitions whose desired move was pushed to a later
	// round by the byte budget.
	Deferred []layout.ID
	// MovedPartitions / MovedBytes total the copies that must ship.
	MovedPartitions int
	MovedBytes      int64
	// ReusedPartitions counts partitions whose sets are unchanged (or only
	// shrink onto copies that already exist) — zero bytes move for them.
	ReusedPartitions int
}

// PlanRebalance reconciles cur (the served placement) with want (the ring
// placement of the surviving member set). hosts reports whether a member
// still physically holds data and serves fetches (alive, suspect or
// draining — not dead); weight is the per-partition cost weight (encoded
// bytes, optionally workload-scaled; nil weights every partition 1); budget
// defers the coldest unforced moves once the shipped bytes would exceed it
// (<= 0: unlimited).
//
// The result is deterministic for fixed inputs: moves are ordered by
// descending weight, ties by ascending ID.
func PlanRebalance(ids []layout.ID, cur, want placement.Replicated, hosts func(w int) bool, weight func(id layout.ID) int64, budget int64) Plan {
	if hosts == nil {
		hosts = func(int) bool { return true }
	}
	if weight == nil {
		weight = func(layout.ID) int64 { return 1 }
	}
	plan := Plan{Target: make(placement.Replicated, len(ids))}
	var moves []Move
	for _, id := range ids {
		holding := make(map[int]bool)
		liveCopies := 0
		for _, w := range cur[id] {
			if hosts(w) {
				holding[w] = true
				liveCopies++
			}
		}
		var gain []int
		kept := 0
		for _, w := range want[id] {
			if holding[w] {
				kept++
			} else {
				gain = append(gain, w)
			}
		}
		var drop []int
		wantSet := make(map[int]bool, len(want[id]))
		for _, w := range want[id] {
			wantSet[w] = true
		}
		for _, w := range cur[id] {
			if !wantSet[w] {
				drop = append(drop, w)
			}
		}
		if len(gain) == 0 {
			// Every wanted copy already exists on a surviving member:
			// nothing ships, the entry merely renames/shrinks at cutover.
			plan.Target[id] = want[id]
			plan.ReusedPartitions++
			continue
		}
		moves = append(moves, Move{
			ID:     id,
			Gain:   gain,
			Drop:   drop,
			Bytes:  weight(id) * int64(len(gain)),
			Forced: liveCopies == 0,
		})
	}
	// Hottest first — the same greedy order Replicate spends its byte
	// budget in, so under a budget the copies that matter most ship first.
	sort.SliceStable(moves, func(i, j int) bool {
		wi, wj := weight(moves[i].ID), weight(moves[j].ID)
		if wi != wj {
			return wi > wj
		}
		return moves[i].ID < moves[j].ID
	})
	var spent int64
	for _, mv := range moves {
		if !mv.Forced && budget > 0 && spent+mv.Bytes > budget && len(plan.Moves) > 0 {
			// Over budget: the partition keeps its surviving copies this
			// round (dead members are still dropped from the set — an
			// install to them would fail) and a later round picks it up.
			var keep []int
			for _, w := range cur[mv.ID] {
				if hosts(w) {
					keep = append(keep, w)
				}
			}
			plan.Target[mv.ID] = keep
			plan.Deferred = append(plan.Deferred, mv.ID)
			continue
		}
		spent += mv.Bytes
		plan.Target[mv.ID] = want[mv.ID]
		plan.Moves = append(plan.Moves, mv)
		plan.MovedPartitions += len(mv.Gain)
		plan.MovedBytes += mv.Bytes
	}
	sort.Slice(plan.Deferred, func(i, j int) bool { return plan.Deferred[i] < plan.Deferred[j] })
	return plan
}
