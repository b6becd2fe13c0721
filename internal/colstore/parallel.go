package colstore

import (
	"sync"

	"paw/internal/geom"
	"paw/internal/parbuild"
)

// ScannerPool hands out reusable Scanners. It is safe for concurrent use
// and allocation-free in steady state: a scanner returned with Put is
// reused with its grown buffers intact.
type ScannerPool struct {
	p sync.Pool
}

// Get returns a scanner, creating one when the pool is empty.
func (sp *ScannerPool) Get() *Scanner {
	if s, ok := sp.p.Get().(*Scanner); ok {
		return s
	}
	return NewScanner()
}

// Put returns a scanner for reuse.
func (sp *ScannerPool) Put(s *Scanner) { sp.p.Put(s) }

// defaultScanners backs the convenience Table.Scan/Count entry points.
var defaultScanners ScannerPool

// parallelMinGroups is the minimum row-group count per fan-out chunk: below
// this the per-task overhead outweighs the scan work.
const parallelMinGroups = 4

// CountParallel evaluates q across the table's row groups in parallel on
// the given bounded pool, merging per-chunk statistics in chunk order so
// the totals are deterministic at any worker count. lead is the caller's own
// scanner: a nil/serial pool or a table under 2*parallelMinGroups row groups
// is counted on it directly, so a caller that walks many small tables (a
// worker batch: ~3 groups per partition) checks out one scanner for all of
// them. Only a fanned-out table draws per-task scratch from sp (nil uses the
// package pool).
func (t *Table) CountParallel(q geom.Box, pool *parbuild.Pool, sp *ScannerPool, lead *Scanner) ScanStats {
	groups := len(t.groups)
	if pool.Workers() <= 1 || groups < 2*parallelMinGroups {
		return lead.Count(t, q)
	}
	if sp == nil {
		sp = &defaultScanners
	}
	if cap(lead.chunks) < pool.Workers() {
		lead.chunks = make([]ScanStats, pool.Workers())
	}
	chunkStats := lead.chunks[:pool.Workers()]
	n := pool.FanChunks(pool.RootSlot(), groups, parallelMinGroups, func(c, lo, hi, slot int) {
		s := sp.Get()
		defer sp.Put(s)
		var st ScanStats
		s.scanGroups(t, q, lo, hi, false, &st)
		chunkStats[c] = st
	})
	var total ScanStats
	for c := 0; c < n; c++ {
		total.Add(chunkStats[c])
	}
	return total
}
