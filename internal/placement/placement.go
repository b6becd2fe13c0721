// Package placement holds the partition-to-worker placement types the
// distributed path shares: a single-copy Assignment and its replicated form.
// Two rules produce them: RoundRobin here, and the consistent-hash ring of
// internal/membership (membership.RingPlacement) that pawmaster and
// pawworker derive independently.
package placement

import (
	"fmt"

	"paw/internal/layout"
)

// Assignment maps every partition to a worker index in [0, workers).
type Assignment map[layout.ID]int

// RoundRobin places the layout's i-th partition on worker i mod workers.
func RoundRobin(l *layout.Layout, workers int) Assignment {
	if workers < 1 {
		workers = 1
	}
	out := make(Assignment, len(l.Parts))
	for i, p := range l.Parts {
		out[p.ID] = i % workers
	}
	return out
}

// Replicated maps every partition to its replica set: the primary worker
// first, then failover replicas on distinct workers. It is the
// failure-aware extension of Assignment — the master scans a partition on
// its primary and fails over down the list when the primary is unreachable
// or its breaker is open.
type Replicated map[layout.ID][]int

// Validate checks the structural contract: every layout partition has at
// least one copy, worker indices are in [0, workers), and no partition lists
// the same worker twice.
func (r Replicated) Validate(l *layout.Layout, workers int) error {
	for _, p := range l.Parts {
		ws := r[p.ID]
		if len(ws) == 0 {
			return fmt.Errorf("placement: partition %d has no replica set", p.ID)
		}
		seen := make(map[int]bool, len(ws))
		for _, w := range ws {
			if w < 0 || w >= workers {
				return fmt.Errorf("placement: partition %d placed on invalid worker %d", p.ID, w)
			}
			if seen[w] {
				return fmt.Errorf("placement: partition %d lists worker %d twice", p.ID, w)
			}
			seen[w] = true
		}
	}
	return nil
}

// Replicated lifts a single-copy assignment to replica sets of size one.
func (a Assignment) Replicated() Replicated {
	out := make(Replicated, len(a))
	for id, w := range a {
		out[id] = []int{w}
	}
	return out
}
