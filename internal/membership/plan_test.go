package membership

import "testing"

func TestPlanRebalanceNoChangeIsEmpty(t *testing.T) {
	ids := seqIDs(100)
	cur := RingPlacement(ids, seqWorkers(4), 2)
	plan := PlanRebalance(ids, cur, cur, nil)
	if len(plan.Moves) != 0 || plan.MovedPartitions != 0 {
		t.Fatalf("identical placements must plan zero moves: %+v", plan)
	}
	if plan.ReusedPartitions != len(ids) {
		t.Fatalf("all partitions reused, got %d", plan.ReusedPartitions)
	}
}

func TestPlanRebalanceJoinMovesOnlyTheDelta(t *testing.T) {
	ids := seqIDs(600)
	cur := RingPlacement(ids, seqWorkers(3), 2)
	want := RingPlacement(ids, seqWorkers(4), 2)
	plan := PlanRebalance(ids, cur, want, nil)
	// Every move must gain only worker 3 or fill arcs it displaced; the
	// planner must never ship copies the target set already holds.
	wantMoves := movedCopies(ids, cur, want)
	if plan.MovedPartitions != wantMoves {
		t.Fatalf("planned %d copy ships, placement delta is %d", plan.MovedPartitions, wantMoves)
	}
	bound := int(2.5 * float64(len(ids)*2) / 4)
	if plan.MovedPartitions > bound {
		t.Fatalf("join moved %d copies, over the movement bound %d", plan.MovedPartitions, bound)
	}
	// The round migrates to want: two copies of every partition.
	for _, id := range ids {
		if len(want[id]) != 2 {
			t.Fatalf("want holds %d copies of %d, not 2", len(want[id]), id)
		}
	}
}

func TestPlanRebalanceDeadWorkerForcesMoves(t *testing.T) {
	ids := seqIDs(200)
	cur := RingPlacement(ids, seqWorkers(3), 1)
	// Worker 2 dies and worker 3 joins in the same round: every partition
	// whose only copy sat on the dead worker must ship a new one.
	want := RingPlacement(ids, []int{0, 1, 3}, 1)
	hosts := func(w int) bool { return w != 2 }
	plan := PlanRebalance(ids, cur, want, hosts)
	lost := 0
	for _, id := range ids {
		if cur[id][0] == 2 {
			lost++
		}
	}
	restored := 0
	for _, mv := range plan.Moves {
		if cur[mv.ID][0] == 2 && len(mv.Gain) > 0 {
			restored++
		}
	}
	if restored != lost {
		t.Fatalf("want %d copy-restoring moves, planned %d", lost, restored)
	}
	if lost == 0 {
		t.Fatal("fixture broken: worker 2 held nothing")
	}
	// No partition the round migrates to may sit on the dead worker or lose
	// all copies.
	for _, id := range ids {
		if len(want[id]) == 0 {
			t.Fatalf("partition %d lost all copies", id)
		}
		for _, w := range want[id] {
			if w == 2 {
				t.Fatalf("partition %d targets the dead worker", id)
			}
		}
	}
}
