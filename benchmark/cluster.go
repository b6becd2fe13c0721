package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dist"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
)

// cluster is the in-process fleet of one run: three workers and one master on
// loopback TCP, and the client connections that drive it.
type cluster struct {
	layout  *layout.Layout
	store   *blockstore.Store
	home    placement.Assignment
	workers []*dist.Worker
	master  *dist.Master
	// reg holds the master's counters, wregs one registry per worker.
	reg     *obs.Registry
	wregs   []*obs.Registry
	clients []*dist.MuxClient

	// Set-up split. total also covers dialling and the first answered query.
	buildTime, materializeTime, startTime, total time.Duration
}

// setUp is what setup_s times: build the PAW layout for the historical
// workload on the sample, encode every partition, start workers and a master
// configured with mcfg, dial the clients and get one query answered.
func setUp(in *inputs, mcfg dist.Config) (*cluster, error) {
	t0 := time.Now()
	l := core.Build(in.data, in.sample, in.domain, in.hist, core.Params{MinRows: in.minRows(), Delta: in.delta})
	t1 := time.Now()
	store := blockstore.Materialize(l, in.data, blockstore.Config{GroupRows: groupRows})
	t2 := time.Now()

	c := &cluster{layout: l, store: store, home: placement.RoundRobin(l, numWorkers)}
	c.buildTime, c.materializeTime = t1.Sub(t0), t2.Sub(t1)
	perWorker := make([][]layout.ID, numWorkers)
	for id, w := range c.home {
		perWorker[w] = append(perWorker[w], id)
	}
	addrs := make([]string, numWorkers)
	for w := range addrs {
		wk := dist.NewWorker(store, perWorker[w])
		reg := obs.New()
		wk.SetMetrics(reg)
		addr, err := wk.Start("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("starting worker %d: %w", w, err)
		}
		c.workers = append(c.workers, wk)
		c.wregs = append(c.wregs, reg)
		addrs[w] = addr
	}
	rm, err := router.NewMaster(l, in.names)
	if err != nil {
		c.close()
		return nil, err
	}
	m, err := dist.NewMaster(rm, addrs, c.home)
	if err != nil {
		c.close()
		return nil, err
	}
	m.Configure(mcfg)
	c.reg = obs.New()
	m.SetMetrics(c.reg)
	c.master = m
	maddr, err := m.Start("127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, fmt.Errorf("starting master: %w", err)
	}
	c.startTime = time.Since(t2)
	for g := 0; g < numClients; g++ {
		cl, err := dist.DialMux(maddr)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dialling master: %w", err)
		}
		c.clients = append(c.clients, cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if _, err := c.clients[0].QueryContext(ctx, in.stmts[0]); err != nil {
		c.close()
		return nil, fmt.Errorf("first query: %w", err)
	}
	c.total = time.Since(t0)
	return c, nil
}

// close stops every connection, the master and the workers, and waits for
// their goroutines.
func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.master != nil {
		c.master.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
}

// migrator issues the placement changes of tpch-migrate-under-load: every
// cycle moves each fourth partition to the next worker (even cycles) or back
// home (odd cycles) through dist.Master.ApplyMigration, as an identity-rename
// migration — the machinery drift re-partitioning and rebalancing both ride.
type migrator struct {
	c *cluster
	// payloads are the moved partitions' encoded tables, made once.
	payloads map[layout.ID][]byte
	cycle    int
	// durations of the migrations applied so far, and how many failed.
	durations []time.Duration
	failed    int
}

func newMigrator(c *cluster) (*migrator, error) {
	mg := &migrator{c: c, payloads: make(map[layout.ID][]byte)}
	for _, p := range c.layout.Parts {
		if p.ID%4 != 0 {
			continue
		}
		sp, err := c.store.Partition(p.ID)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := sp.Table.Encode(&buf); err != nil {
			return nil, fmt.Errorf("encoding partition %d: %w", p.ID, err)
		}
		mg.payloads[p.ID] = buf.Bytes()
	}
	return mg, nil
}

// apply runs the next migration of the schedule.
func (mg *migrator) apply(ctx context.Context) {
	parts := mg.c.layout.Parts
	mig := &dist.Migration{
		Epoch:    mg.c.master.Epoch() + 1,
		Router:   mg.c.master.Router(),
		Replicas: make(placement.Replicated, len(parts)),
		Entries:  make([]dist.MigrationEntry, 0, len(parts)),
		Renamed:  make(map[layout.ID]layout.ID, len(parts)),
	}
	away := mg.cycle%2 == 0
	for _, p := range parts {
		w := mg.c.home[p.ID]
		payload := mg.payloads[p.ID]
		if payload != nil && away {
			w = (w + 1) % numWorkers
		}
		mig.Replicas[p.ID] = []int{w}
		mig.Renamed[p.ID] = p.ID
		mig.Entries = append(mig.Entries, dist.MigrationEntry{
			ID: p.ID, Workers: []int{w}, ReuseID: p.ID, Payload: payload, Rows: p.FullRows,
		})
	}
	mg.cycle++
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	if err := mg.c.master.ApplyMigration(ctx, mig); err != nil {
		mg.failed++
		logf("migration to epoch %d failed: %v", mig.Epoch, err)
		return
	}
	mg.durations = append(mg.durations, time.Since(t0))
}
