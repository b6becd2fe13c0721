// Package blockstore simulates the block-based distributed storage layer
// (HDFS / S3 / Databricks in the paper): a routed partition layout is
// materialised into one columnar table per partition, occupying an integral
// number of fixed-size blocks. The store accounts bytes written and a
// simulated write time so the Table II construction-time breakdown (layout
// generation vs routing + I/O) can be reproduced. WriteDir persists a store
// as one PAWC file per partition, and Open serves such a directory: a
// partition is read from its file when it is asked for, not at boot.
package blockstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
)

// Config configures the store.
type Config struct {
	// GroupRows is the row-group size of the per-partition columnar tables
	// (0: colstore.DefaultGroupRows).
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

// Builder returns the builder of l's partition tables from rows of data in a
// store with this configuration: extents are measured against l's root box.
// Whoever encodes a partition of such a store outside it — a drift
// migration's payload, from the rows its region's holders returned — builds it
// with this, so that the partition is laid out exactly as Materialize lays it
// out from the whole dataset.
func (c Config) Builder(data *dataset.Dataset, l *layout.Layout) *colstore.Builder {
	return colstore.NewBuilder(data, l.Root.Desc.MBR(), c.GroupRows)
}

// StoredPartition is a materialised partition.
type StoredPartition struct {
	Table  *colstore.Table
	Blocks int
}

// Bytes returns the partition's physical size.
func (p *StoredPartition) Bytes() int64 { return p.Table.Bytes() }

// Store holds the materialised partitions of one layout, or, when opened
// from a directory, reads them from it.
type Store struct {
	parts    map[layout.ID]*StoredPartition
	scanners colstore.ScannerPool
	// dir and l are an opened store's directory and the layout its files
	// were written for; dir is "" for a materialised store.
	dir string
	l   *layout.Layout

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
// Every row is routed once, in parallel, straight into per-partition lists of
// ascending row indices (Layout.RouteRows), and the builder clusters and
// encodes the partitions concurrently, tiling them for the workload the
// layout was built for (Layout.ExtendedHist). Results land in partition-indexed
// slots and are summed in ID order, so the store is identical at any
// GOMAXPROCS.
func Materialize(l *layout.Layout, data *dataset.Dataset, cfg Config) *Store {
	start := time.Now()
	byPart := l.RouteRows(data, runtime.GOMAXPROCS(0))
	s := &Store{parts: make(map[layout.ID]*StoredPartition, len(l.Parts)), RoutingTime: time.Since(start)}

	stored := make([]StoredPartition, len(l.Parts))
	cfg.Builder(data, l).BuildAll(byPart, l.ExtendedHist(), func(i int, tab *colstore.Table) {
		stored[i] = storedOf(tab)
	})
	for i := range stored {
		s.parts[layout.ID(i)] = &stored[i]
		s.BytesWritten += stored[i].Table.Bytes()
		l.Parts[i].Precise = nil
		if env, ok := stored[i].Table.Envelope(); ok {
			l.Parts[i].Precise = []geom.Box{env}
		}
	}
	s.SimWriteTime = time.Duration(float64(s.BytesWritten) / (writeMBps * 1e6) * float64(time.Second))
	return s
}

// storedOf wraps a partition's table with the blocks it occupies.
func storedOf(tab *colstore.Table) StoredPartition {
	return StoredPartition{Table: tab, Blocks: max(1, int((tab.Bytes()+blockBytes-1)/blockBytes))}
}

// fileName is where WriteDir puts partition id and Open looks for it.
func fileName(dir string, id layout.ID) string {
	return filepath.Join(dir, fmt.Sprintf("%d.pawc", id))
}

// WriteDir writes every partition of a materialised store to dir/<id>.pawc,
// creating dir: each file holds the partition's table as colstore's Encode
// writes it, the bytes a worker ships when a migration fetches the partition.
func (s *Store) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	for id, p := range s.parts {
		buf.Reset()
		if err := p.Table.Encode(&buf); err != nil {
			return fmt.Errorf("blockstore: encoding partition %d: %w", id, err)
		}
		if err := os.WriteFile(fileName(dir, id), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Open serves the partitions of l that WriteDir wrote to dir. Nothing but the
// directory is read here: Partition reads a partition's file each time it is
// asked for one, and refuses a table whose rows or envelope are not what l
// records for that partition (FullRows, and the one Precise box Materialize
// left), so a file written for other data is never served.
func Open(dir string, l *layout.Layout) (*Store, error) {
	if _, err := os.ReadDir(dir); err != nil {
		return nil, err
	}
	return &Store{dir: dir, l: l}, nil
}

// Partition returns the stored partition with the given ID.
func (s *Store) Partition(id layout.ID) (*StoredPartition, error) {
	if p, ok := s.parts[id]; ok {
		return p, nil
	}
	if s.dir == "" || id < 0 || int(id) >= len(s.l.Parts) {
		return nil, fmt.Errorf("blockstore: unknown partition %d", id)
	}
	f, err := os.Open(fileName(s.dir, id))
	if err != nil {
		return nil, fmt.Errorf("blockstore: partition %d: %w", id, err)
	}
	tab, err := colstore.Decode(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("blockstore: partition %d: %w", id, err)
	}
	p := s.l.Parts[id]
	if env, ok := tab.Envelope(); int64(tab.NumRows()) != p.FullRows || ok != (len(p.Precise) == 1) || ok && !env.Equal(p.Precise[0]) {
		return nil, fmt.Errorf("blockstore: partition %d holds %d rows in %v, the layout records %d in %v", id, tab.NumRows(), env, p.FullRows, p.Precise)
	}
	sp := storedOf(tab)
	return &sp, nil
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
