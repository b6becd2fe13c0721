// Package cluster is a discrete simulator of the paper's evaluation platform
// — a 4-node Spark cluster over HDFS — used to reproduce end-to-end query
// response times (Fig. 15b, Table IV). Partitions are placed round-robin on
// workers; a query's elapsed time is the network round trip plus the slowest
// worker's scan time, where each partition scan pays a seek and then streams
// the row groups that survive SMA pruning at disk or cache throughput.
//
// The simulator reproduces the paper's qualitative observation that
// end-to-end time grows sub-linearly in I/O cost: row-group pruning and the
// per-worker LRU cache absorb a growing share of nominally scanned bytes.
package cluster

import (
	"time"

	"paw/internal/blockstore"
	"paw/internal/geom"
	"paw/internal/layout"
)

// Config describes the simulated cluster. The defaults mirror the paper's
// testbed shape: 4 nodes, HDD-class scan throughput, LAN latency.
type Config struct {
	// Workers is the number of storage/compute nodes.
	Workers int
	// DiskMBps is the sequential scan throughput of one worker's disk.
	DiskMBps float64
	// CacheMBps is the scan throughput for partitions resident in the
	// worker's cache.
	CacheMBps float64
	// KernelMBps caps effective scan throughput at the CPU decode-kernel
	// rate of the vectorized columnar scan: even a cache-resident partition
	// cannot stream faster than the kernels evaluate encoded bytes. Zero
	// disables the cap (pure I/O model).
	KernelMBps float64
	// SeekLatency is paid once per partition scanned.
	SeekLatency time.Duration
	// NetworkRTT is paid once per query (master round trip).
	NetworkRTT time.Duration
	// CacheBytes is each worker's cache capacity (LRU over partitions).
	CacheBytes int64
}

// Defaults returns a configuration shaped like the paper's 4-node cluster.
// Datasets in this repository are scaled 1/1000, so scan throughputs are
// scaled by the same factor: a simulated scan of the scaled dataset then
// takes as long as a real scan of the paper's dataset would, keeping the
// end-to-end time axis comparable to Fig. 15b and Table IV.
func Defaults() Config {
	return Config{
		Workers:     4,
		DiskMBps:    0.150, // 150 MB/s HDD, scaled 1/1000
		CacheMBps:   2.5,   // ~2.5 GB/s memory scan, scaled 1/1000
		KernelMBps:  4.0,   // ~4.05 GB/s measured full-decode kernel rate (BENCH_scan.json decode_mb_per_sec), scaled 1/1000
		SeekLatency: 8 * time.Millisecond,
		NetworkRTT:  2 * time.Millisecond,
		CacheBytes:  1 << 22, // 4 MB/worker ≈ 16 GB RAM scaled 1/1000 (most of the dataset fits in aggregate cache, as on the paper's testbed)
	}
}

// Cluster simulates query execution against a materialised store.
type Cluster struct {
	cfg       Config
	store     *blockstore.Store
	placement map[layout.ID]int
	caches    []*lruCache
}

// New builds a cluster over the store, placing the layout's partitions
// round-robin.
func New(cfg Config, store *blockstore.Store, l *layout.Layout) *Cluster {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	c := &Cluster{cfg: cfg, store: store, placement: make(map[layout.ID]int, len(l.Parts))}
	for i, p := range l.Parts {
		c.placement[p.ID] = i % cfg.Workers
	}
	c.caches = make([]*lruCache, cfg.Workers)
	for i := range c.caches {
		c.caches[i] = newLRU(cfg.CacheBytes)
	}
	return c
}

// Result reports one query's simulated execution.
type Result struct {
	// Rows is the number of matching records returned.
	Rows int
	// BytesScanned is the total payload read after row-group pruning.
	BytesScanned int64
	// BytesNominal is the total size of the partitions the master selected
	// (the paper's I/O cost, Eq. 1).
	BytesNominal int64
	// Elapsed is the simulated end-to-end response time.
	Elapsed time.Duration
	// CacheHits counts partitions served from worker caches.
	CacheHits int
}

// Query executes the query against the given partition list (as produced by
// the master's router) and returns simulated statistics.
func (c *Cluster) Query(q geom.Box, ids []layout.ID) (Result, error) {
	var res Result
	perWorker := make([]time.Duration, c.cfg.Workers)
	for _, id := range ids {
		w := c.placement[id]
		p, err := c.store.Partition(id)
		if err != nil {
			return res, err
		}
		st, err := c.store.ScanPartition(id, q)
		if err != nil {
			return res, err
		}
		res.Rows += st.Matched
		res.BytesScanned += st.BytesRead
		res.BytesNominal += p.Bytes()

		throughput := c.cfg.DiskMBps
		if c.caches[w].touch(id, p.Bytes()) {
			throughput = c.cfg.CacheMBps
			res.CacheHits++
		}
		if c.cfg.KernelMBps > 0 && throughput > c.cfg.KernelMBps {
			throughput = c.cfg.KernelMBps
		}
		scan := time.Duration(float64(st.BytesRead) / (throughput * 1e6) * float64(time.Second))
		perWorker[w] += c.cfg.SeekLatency + scan
	}
	slowest := time.Duration(0)
	for _, t := range perWorker {
		if t > slowest {
			slowest = t
		}
	}
	res.Elapsed = c.cfg.NetworkRTT + slowest
	return res, nil
}

// RunWorkload executes every query and returns the average result.
func (c *Cluster) RunWorkload(queries []geom.Box, route func(geom.Box) []layout.ID) (avg Result, err error) {
	if len(queries) == 0 {
		return Result{}, nil
	}
	var sum Result
	for _, q := range queries {
		r, err := c.Query(q, route(q))
		if err != nil {
			return Result{}, err
		}
		sum.Rows += r.Rows
		sum.BytesScanned += r.BytesScanned
		sum.BytesNominal += r.BytesNominal
		sum.Elapsed += r.Elapsed
		sum.CacheHits += r.CacheHits
	}
	n := len(queries)
	return Result{
		Rows:         sum.Rows / n,
		BytesScanned: sum.BytesScanned / int64(n),
		BytesNominal: sum.BytesNominal / int64(n),
		Elapsed:      sum.Elapsed / time.Duration(n),
		CacheHits:    sum.CacheHits / n,
	}, nil
}

// lruCache is a byte-budgeted LRU over partition IDs.
type lruCache struct {
	capacity int64
	used     int64
	order    []layout.ID // least recent first
	sizes    map[layout.ID]int64
}

func newLRU(capacity int64) *lruCache {
	return &lruCache{capacity: capacity, sizes: make(map[layout.ID]int64)}
}

// touch records an access and reports whether it was a hit. Misses insert
// the partition, evicting least-recently-used entries as needed; partitions
// larger than the capacity are never cached.
func (c *lruCache) touch(id layout.ID, size int64) bool {
	if _, ok := c.sizes[id]; ok {
		// Move to the back (most recent).
		for i, x := range c.order {
			if x == id {
				c.order = append(append(c.order[:i:i], c.order[i+1:]...), id)
				break
			}
		}
		return true
	}
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		c.used -= c.sizes[victim]
		delete(c.sizes, victim)
	}
	c.sizes[id] = size
	c.used += size
	c.order = append(c.order, id)
	return false
}
