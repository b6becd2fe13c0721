package membership

import (
	"fmt"
	"testing"

	"paw/internal/layout"
)

func seqIDs(n int) []layout.ID {
	ids := make([]layout.ID, n)
	for i := range ids {
		ids[i] = layout.ID(i)
	}
	return ids
}

func seqWorkers(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i
	}
	return ws
}

// movedCopies counts the (partition, worker) copies present in b but not in
// a — the copies that must physically ship to go from placement a to b.
func movedCopies(ids []layout.ID, a, b map[layout.ID][]int) int {
	moved := 0
	for _, id := range ids {
		have := make(map[int]bool, len(a[id]))
		for _, w := range a[id] {
			have[w] = true
		}
		for _, w := range b[id] {
			if !have[w] {
				moved++
			}
		}
	}
	return moved
}

func TestRingPlacementIsPureAndValid(t *testing.T) {
	ids := seqIDs(500)
	for _, replicas := range []int{1, 2, 3} {
		p1 := RingPlacement(ids, seqWorkers(5), replicas)
		p2 := RingPlacement(ids, seqWorkers(5), replicas)
		for _, id := range ids {
			if len(p1[id]) != replicas {
				t.Fatalf("replicas=%d: partition %d has %d copies", replicas, id, len(p1[id]))
			}
			seen := map[int]bool{}
			for i, w := range p1[id] {
				if w < 0 || w >= 5 || seen[w] {
					t.Fatalf("partition %d invalid replica set %v", id, p1[id])
				}
				seen[w] = true
				if p2[id][i] != w {
					t.Fatalf("placement is not deterministic at partition %d", id)
				}
			}
		}
	}
}

// TestRingMovementBound asserts the minimal-movement property numerically:
// adding one worker to an N-worker ring moves at most ~P·R/(N+1) copies
// (within a 2.5x concentration slack — FNV arc lengths are not perfectly
// uniform at 64 vnodes), far below the P·R a modular rule reshuffles; and
// removing the worker again restores the original placement exactly.
func TestRingMovementBound(t *testing.T) {
	const P = 2000
	ids := seqIDs(P)
	for _, tc := range []struct{ n, replicas int }{
		{2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 3}, {8, 2}, {8, 3},
	} {
		t.Run(fmt.Sprintf("n=%d_r=%d", tc.n, tc.replicas), func(t *testing.T) {
			before := RingPlacement(ids, seqWorkers(tc.n), tc.replicas)
			after := RingPlacement(ids, seqWorkers(tc.n+1), tc.replicas)
			moved := movedCopies(ids, before, after)
			expect := float64(P*tc.replicas) / float64(tc.n+1)
			bound := int(2.5 * expect)
			if moved > bound {
				t.Fatalf("join moved %d copies, bound %d (expected ~%.0f of %d total)",
					moved, bound, expect, P*tc.replicas)
			}
			if moved == 0 {
				t.Fatal("a join must move something")
			}
			// The new worker must actually take on load.
			gained := 0
			for _, id := range ids {
				for _, w := range after[id] {
					if w == tc.n {
						gained++
					}
				}
			}
			if gained == 0 {
				t.Fatal("joined worker owns nothing")
			}
			// Leave = inverse join: removing the worker restores the
			// original placement bit for bit (placement is a pure function
			// of the member set).
			restored := RingPlacement(ids, seqWorkers(tc.n), tc.replicas)
			for _, id := range ids {
				if len(restored[id]) != len(before[id]) {
					t.Fatalf("leave did not restore partition %d", id)
				}
				for i := range before[id] {
					if restored[id][i] != before[id][i] {
						t.Fatalf("leave did not restore partition %d: %v vs %v", id, restored[id], before[id])
					}
				}
			}
		})
	}
}

// TestRingLoadBalance sanity-checks the virtual-node smoothing: no worker
// owns more than ~2.2x its fair share of primaries at the default vnode
// count.
func TestRingLoadBalance(t *testing.T) {
	const P, N = 4000, 6
	place := RingPlacement(seqIDs(P), seqWorkers(N), 1)
	counts := make([]int, N)
	for _, ws := range place {
		counts[ws[0]]++
	}
	fair := float64(P) / N
	for w, c := range counts {
		if float64(c) > 2.2*fair || float64(c) < fair/2.2 {
			t.Fatalf("worker %d owns %d primaries (fair share %.0f): ring too skewed", w, c, fair)
		}
	}
}

func TestChecksumOrderIndependentAndDiscriminating(t *testing.T) {
	a := Checksum([]layout.ID{1, 2, 3})
	b := Checksum([]layout.ID{3, 1, 2})
	if a != b {
		t.Fatal("checksum must be order-independent")
	}
	if Checksum([]layout.ID{1, 2}) == a {
		t.Fatal("checksum must depend on the set")
	}
	if Checksum(nil) == a {
		t.Fatal("empty checksum must differ from non-empty")
	}
	if Checksum(nil) != Checksum([]layout.ID{}) {
		t.Fatal("nil and empty must agree")
	}
}

func TestHostedIDsInvertsPlacement(t *testing.T) {
	ids := seqIDs(50)
	place := RingPlacement(ids, seqWorkers(3), 2)
	for w := 0; w < 3; w++ {
		for _, id := range HostedIDs(place, w) {
			found := false
			for _, h := range place[id] {
				if h == w {
					found = true
				}
			}
			if !found {
				t.Fatalf("HostedIDs(%d) includes %d but placement does not", w, id)
			}
		}
	}
	if got := len(HostedIDs(place, 0)) + len(HostedIDs(place, 1)) + len(HostedIDs(place, 2)); got != 100 {
		t.Fatalf("copies double-counted or lost: %d", got)
	}
}
