// Package blockstore simulates the block-based distributed storage layer
// (HDFS / S3 / Databricks in the paper): a routed partition layout is
// materialised into one columnar table per partition, occupying an integral
// number of fixed-size blocks. The store accounts bytes written and a
// simulated write time so the Table II construction-time breakdown (layout
// generation vs routing + I/O) can be reproduced.
package blockstore

import (
	"fmt"
	"runtime"
	"time"

	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
)

// Config configures the store.
type Config struct {
	// GroupRows is the row-group size of the per-partition columnar tables.
	GroupRows int
}

const (
	// blockBytes is the block size: the paper's 128 MB HDFS block scaled
	// 1/1000 to this repository's world. Partitions occupy
	// ceil(size/blockBytes) blocks.
	blockBytes = 128 << 10
	// writeMBps is the simulated sequential write throughput (one HDD's)
	// that models the "routing and I/O time" of Table II.
	writeMBps = 120
)

func (c Config) withDefaults() Config {
	if c.GroupRows <= 0 {
		c.GroupRows = colstore.DefaultGroupRows
	}
	return c
}

// Builder returns the partition-table builder of a store with this
// configuration. Whoever encodes a partition of such a store outside it — a
// drift migration's payload — builds it with this, so that the partition is
// laid out exactly as Materialize lays it out.
func (c Config) Builder(data *dataset.Dataset) *colstore.Builder {
	return colstore.NewBuilder(data, c.withDefaults().GroupRows)
}

// StoredPartition is a materialised partition.
type StoredPartition struct {
	ID     layout.ID
	Table  *colstore.Table
	Blocks int
}

// Bytes returns the partition's physical size.
func (p *StoredPartition) Bytes() int64 { return p.Table.Bytes() }

// Store holds the materialised partitions of one layout.
type Store struct {
	cfg      Config
	parts    map[layout.ID]*StoredPartition
	scanners colstore.ScannerPool

	// BytesWritten is the total payload written at materialisation.
	BytesWritten int64
	// RoutingTime is the measured wall-clock time spent routing records.
	RoutingTime time.Duration
	// SimWriteTime is the simulated disk time for writing the partitions.
	SimWriteTime time.Duration
}

// Materialize routes the full dataset through the layout and writes every
// partition as a columnar table in the one physical row order colstore.Builder
// defines. The layout must already be sealed. Materialize is where a dataset
// is bound to a layout, and it leaves the layout describing that dataset: the
// routing pass (re)sets FullRows, TotalBytes and Unrouted, and every
// partition's Precise descriptor (§V-A) is replaced by the one data envelope of
// its table — none for an empty partition — so the master drops, before any
// hop, a partition whose every row group a worker would have skipped. A
// descriptor computed for other data does not survive; descriptor.Install
// after materialising puts an N-box one back.
//
// Every row is routed once, in parallel; a counting sort then deals the row
// indices into per-partition slices, and the builder clusters and encodes the
// partitions concurrently. Results land in partition-indexed slots and are
// summed in ID order, so the store is identical at any GOMAXPROCS.
func Materialize(l *layout.Layout, data *dataset.Dataset, cfg Config) *Store {
	cfg = cfg.withDefaults()
	start := time.Now()
	byPart := partitionRows(l, l.RouteAssign(data, runtime.GOMAXPROCS(0)))
	s := &Store{cfg: cfg, parts: make(map[layout.ID]*StoredPartition, len(l.Parts)), RoutingTime: time.Since(start)}

	stored := make([]StoredPartition, len(l.Parts))
	cfg.Builder(data).BuildAll(byPart, func(i int, tab *colstore.Table) {
		blocks := int((tab.Bytes() + blockBytes - 1) / blockBytes)
		if blocks == 0 {
			blocks = 1
		}
		stored[i] = StoredPartition{ID: layout.ID(i), Table: tab, Blocks: blocks}
	})
	for i := range stored {
		s.parts[stored[i].ID] = &stored[i]
		s.BytesWritten += stored[i].Table.Bytes()
		l.Parts[i].Precise = nil
		if env, ok := stored[i].Table.Envelope(); ok {
			l.Parts[i].Precise = []geom.Box{env}
		}
	}
	s.SimWriteTime = time.Duration(float64(s.BytesWritten) / (writeMBps * 1e6) * float64(time.Second))
	return s
}

// partitionRows turns the per-row partition assignment of a routing pass into
// the ascending row indices of each partition: a counting sort over one
// backing array, sized by the FullRows the same pass set.
func partitionRows(l *layout.Layout, assign []int32) [][]int {
	byPart := make([][]int, len(l.Parts))
	backing := make([]int, len(assign)-int(l.Unrouted))
	for i, p := range l.Parts {
		byPart[i], backing = backing[:0:p.FullRows], backing[p.FullRows:]
	}
	for r, id := range assign {
		if id >= 0 {
			byPart[id] = append(byPart[id], r)
		}
	}
	return byPart
}

// Partition returns the stored partition with the given ID.
func (s *Store) Partition(id layout.ID) (*StoredPartition, error) {
	p, ok := s.parts[id]
	if !ok {
		return nil, fmt.Errorf("blockstore: unknown partition %d", id)
	}
	return p, nil
}

// TotalBlocks returns the number of storage blocks in use.
func (s *Store) TotalBlocks() int {
	t := 0
	for _, p := range s.parts {
		t += p.Blocks
	}
	return t
}

// ScanPartition scans one partition with the query through the vectorized
// kernels, using row-group pruning. Scanner scratch comes from the store's
// pool, so concurrent scans of different partitions are safe and
// allocation-free in steady state.
func (s *Store) ScanPartition(id layout.ID, q geom.Box) (colstore.ScanStats, error) {
	p, err := s.Partition(id)
	if err != nil {
		return colstore.ScanStats{}, err
	}
	sc := s.scanners.Get()
	defer s.scanners.Put(sc)
	return sc.Count(p.Table, q), nil
}

// ScanAll scans the listed partitions on one scanner and sums the statistics
// — the storage side of Fig. 4's query flow.
func (s *Store) ScanAll(ids []layout.ID, q geom.Box) (colstore.ScanStats, error) {
	var total colstore.ScanStats
	sc := s.scanners.Get()
	defer s.scanners.Put(sc)
	for _, id := range ids {
		p, err := s.Partition(id)
		if err != nil {
			return total, err
		}
		total.Add(sc.Count(p.Table, q))
	}
	return total, nil
}
