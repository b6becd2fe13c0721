// Package placement holds the partition-to-worker placement types the
// distributed path shares: a single-copy Assignment and its replicated form.
// Two rules produce them: LeafRuns here, which the in-process fleets of the
// paper rows, the drift bench and the end-to-end benchmark use, and the
// consistent-hash ring of internal/membership (membership.RingPlacement) that
// pawmaster and pawworker derive independently.
package placement

import (
	"fmt"

	"paw/internal/geom"
	"paw/internal/layout"
)

// Assignment maps every partition to a worker index in [0, workers).
type Assignment map[layout.ID]int

// LeafRuns cuts the layout's partitions, in ID order, into workers contiguous
// runs balanced on FullRows, and gives every partition copies replicas: the
// primary on its run's worker w, replica r on worker (w + r) mod workers.
// layout.Seal numbers partitions in leaf order, so neighbouring IDs cover
// neighbouring regions and a query that touches several partitions mostly
// touches one run — one worker, one round trip.
//
// A partition goes to worker ⌊(rows before it + half its rows) · workers /
// total rows⌋ (by index when no rows are routed), so no worker holds more
// than total/workers plus one partition's FullRows. copies is clamped to
// [1, workers], workers to at least 1.
func LeafRuns(l *layout.Layout, workers, copies int) Replicated {
	workers = max(workers, 1)
	copies = min(max(copies, 1), workers)
	var total int64
	for _, p := range l.Parts {
		total += p.FullRows
	}
	out := make(Replicated, len(l.Parts))
	var before int64
	for i, p := range l.Parts {
		w := i * workers / len(l.Parts)
		if total > 0 {
			w = min(int((2*before+p.FullRows)*int64(workers)/(2*total)), workers-1)
		}
		before += p.FullRows
		ws := make([]int, copies)
		for r := range ws {
			ws[r] = (w + r) % workers
		}
		out[p.ID] = ws
	}
	return out
}

// RoundRobin is LeafRuns with one copy, as an Assignment. The name no longer
// says what it does: it is kept only because the end-to-end benchmark
// (benchmark/cluster.go) calls it, and it goes in the [benchmark] instrument
// change that gives that benchmark a placement option.
func RoundRobin(l *layout.Layout, workers int) Assignment {
	out := make(Assignment, len(l.Parts))
	for id, ws := range LeafRuns(l, workers, 1) {
		out[id] = ws[0]
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

// WorkersPerQuery is the mean number of distinct primary workers the layout's
// partitions for each query sit on: the worker round trips a query pays when
// every replica is up.
func (r Replicated) WorkersPerQuery(l *layout.Layout, queries []geom.Box) float64 {
	var sum int
	seen := make(map[int]bool)
	for _, q := range queries {
		clear(seen)
		for _, id := range l.PartitionsFor(q) {
			seen[r[id][0]] = true
		}
		sum += len(seen)
	}
	return float64(sum) / float64(len(queries))
}
