// Package router implements the master node of the PAW query framework
// (Fig. 4): it keeps the partition layout's descriptors (plus optional
// precise descriptors) in memory, rewrites incoming SQL queries into range
// queries, and computes the union list of partition IDs the storage layer
// must scan.
package router

import (
	"fmt"
	"sort"
	"time"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/sqlrew"
)

// Master is the in-memory query-routing state of the cluster's master node.
type Master struct {
	layout   *layout.Layout
	rewriter *sqlrew.Rewriter
	// m is the optional routing telemetry (SetMetrics); the zero value is
	// fully disabled and keeps the hot path allocation-free.
	m metrics
}

// NewMaster wires a routed layout with a SQL schema. columns maps query
// dimensions to SQL column names, in dimension order.
func NewMaster(l *layout.Layout, columns []string) (*Master, error) {
	rw, err := sqlrew.New(columns)
	if err != nil {
		return nil, err
	}
	return &Master{layout: l, rewriter: rw}, nil
}

// Layout exposes the routed layout.
func (m *Master) Layout() *layout.Layout { return m.layout }

// RangePlan is the routing decision for one rewritten range query.
type RangePlan struct {
	// Range is the rewritten range query.
	Range geom.Box
	// Parts lists the partitions to scan.
	Parts []layout.ID
}

// Plan is the full routing decision for one SQL query.
type Plan struct {
	Ranges []RangePlan
}

// PartitionIDs returns the deduplicated, sorted union of base partitions
// over all sub-queries — the ID list the master ships to the storage layer.
// Single-range plans (the common case) return the range's already-sorted
// list directly; multi-range plans sort-and-compact without a hash set.
func (p Plan) PartitionIDs() []layout.ID {
	n := 0
	for _, r := range p.Ranges {
		n += len(r.Parts)
	}
	if n == 0 {
		return nil
	}
	if len(p.Ranges) == 1 {
		return p.Ranges[0].Parts
	}
	out := make([]layout.ID, 0, n)
	for _, r := range p.Ranges {
		out = append(out, r.Parts...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// NumScans counts the per-range partition scans the plan schedules — the
// scatter work, without materialising the deduplicated union. A partition
// named by two ranges counts twice, because it is scanned twice. Used as a
// routing-span attribute and cost-record feature without PartitionIDs'
// allocation on multi-range plans.
func (p Plan) NumScans() int {
	n := 0
	for _, r := range p.Ranges {
		n += len(r.Parts)
	}
	return n
}

// RouteSQL rewrites a SQL statement and routes every resulting range.
func (m *Master) RouteSQL(stmt string) (Plan, error) {
	ranges, err := m.rewriter.RewriteSQL(stmt)
	if err != nil {
		return Plan{}, err
	}
	return m.routeRanges(ranges)
}

// RouteRange routes a single pre-built range query.
func (m *Master) RouteRange(q geom.Box) (Plan, error) {
	return m.routeRanges([]geom.Box{q})
}

func (m *Master) routeRanges(ranges []geom.Box) (Plan, error) {
	var plan Plan
	for _, q := range ranges {
		if q.Dims() != m.rewriter.Dims() {
			return Plan{}, fmt.Errorf("router: query has %d dims, schema has %d", q.Dims(), m.rewriter.Dims())
		}
		plan.Ranges = append(plan.Ranges, RangePlan{Range: q, Parts: m.RoutePartitions(nil, q)})
	}
	return plan, nil
}

// RoutePartitions routes one range query without materialising a Plan: the
// partitions to scan are appended to dst (allocation-free when dst has
// capacity — the hot path for callers streaming many ranges).
func (m *Master) RoutePartitions(dst []layout.ID, q geom.Box) []layout.ID {
	var start time.Time
	if m.m.enabled {
		start = time.Now()
	}
	pre := len(dst)
	parts := m.layout.AppendPartitionsFor(dst, q)
	if m.m.enabled {
		m.observeRoute(start, parts[pre:])
	}
	return parts
}

// MemoryFootprint returns the master's in-memory metadata size in bytes:
// 16·dmax per rectangular descriptor bound pair, the same per irregular
// region box and per precise-descriptor MBR. This is
// the quantity §V-A argues is negligible next to partition sizes.
func (m *Master) MemoryFootprint() int64 {
	perBox := int64(m.rewriter.Dims()) * 16
	var total int64
	for _, p := range m.layout.Parts {
		switch d := p.Desc.(type) {
		case layout.Rect:
			total += perBox
		case layout.Irregular:
			total += perBox * int64(1+len(d.Holes))
		default:
			total += perBox
		}
		total += perBox * int64(len(p.Precise))
	}
	return total
}
