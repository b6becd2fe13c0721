// Command pawworker hosts a share of a partitioned dataset and serves scan
// requests from a pawmaster. Workers take the dataset and layout files
// produced by pawgen; partition ownership follows the consistent-hash ring
// (the rule elastic clusters rebalance to), so all processes agree without
// coordination. Start every worker and the master with the same -replicas
// value.
//
//	pawgen gen -dataset tpch -rows 120000 -out data.pawd
//	pawgen partition -in data.pawd -method paw -layout-out layout.pawl
//	pawworker -data data.pawd -layout layout.pawl -index 0 -workers 2 -listen 127.0.0.1:7101 &
//	pawworker -data data.pawd -layout layout.pawl -index 1 -workers 2 -listen 127.0.0.1:7102 &
//
// With -join the worker registers with a membership-enabled master
// (pawmaster -membership) instead of assuming a static fleet: the join
// handshake carries a checksum of the partitions this worker derived, the
// master rejects the join if its own placement disagrees, and a background
// heartbeat every 500 ms keeps the worker alive in the master's failure
// detector. A worker started with -join and NO -data/-layout is a
// fresh scale-out node: it joins empty and receives partitions through the
// master's live rebalancing. On SIGINT a joined worker asks for a graceful
// leave — the master drains its partitions before the process exits (or
// after two minutes, drained or not).
//
//	pawworker -join 127.0.0.1:7100 -listen 127.0.0.1:7103 &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"time"

	"paw/internal/blockstore"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/obs"
)

func main() {
	var (
		dataPath   = flag.String("data", "", "dataset file (.pawd); optional with -join (a fresh joiner starts empty)")
		layoutPath = flag.String("layout", "", "layout file (.pawl); optional with -join")
		index      = flag.Int("index", -1, "this worker's slot (-1 with -join: the master assigns one)")
		workers    = flag.Int("workers", 1, "total worker count the static placement is derived over")
		replicas   = flag.Int("replicas", 1, "copies per partition (match pawmaster)")
		listen     = flag.String("listen", "127.0.0.1:0", "listen address")
		metrics    = flag.String("metrics", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address; empty disables")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")

		joinAddr  = flag.String("join", "", "master client address to join (elastic membership; empty: static fleet, no handshake)")
		advertise = flag.String("advertise", "", "scan-serving address to advertise in the join handshake (default: the bound -listen address)")
	)
	flag.Parse()
	if _, err := obs.SetupLogger(*logLevel); err != nil {
		fatalf("%v", err)
	}
	fresh := *dataPath == "" && *layoutPath == ""
	if fresh && *joinAddr == "" {
		fatalf("-data and -layout are required (only a -join worker may start empty)")
	}
	if !fresh && (*dataPath == "" || *layoutPath == "") {
		fatalf("-data and -layout go together")
	}

	var (
		w    *dist.Worker
		mine []layout.ID
	)
	if fresh {
		w = dist.NewWorker(nil, nil)
	} else {
		if *index < 0 || *index >= *workers {
			fatalf("index %d out of range for %d workers (a worker with data needs its slot; only fresh -join workers omit -index)", *index, *workers)
		}
		if *replicas < 1 || *replicas > *workers {
			fatalf("-replicas %d out of range for %d workers", *replicas, *workers)
		}
		data := loadData(*dataPath)
		l := loadLayout(*layoutPath)
		store := blockstore.Materialize(l, data, blockstore.Config{})
		// The same derivation pawmaster runs, so the join checksum only
		// matches when every flag agrees.
		ids := make([]layout.ID, len(l.Parts))
		for i, p := range l.Parts {
			ids[i] = p.ID
		}
		all := make([]int, *workers)
		for i := range all {
			all[i] = i
		}
		mine = membership.HostedIDs(membership.RingPlacement(ids, all, *replicas), *index)
		w = dist.NewWorker(store, mine)
	}

	if *metrics != "" {
		reg := obs.New()
		w.SetMetrics(reg)
		srv, err := obs.ServeWith(*metrics, reg, map[string]http.Handler{
			"/healthz": obs.Healthz(),
			"/readyz":  obs.Readyz(w.Ready),
		})
		if err != nil {
			fatalf("metrics listener: %v", err)
		}
		defer srv.Close()
		slog.Info("telemetry enabled", "metrics", "http://"+srv.Addr()+"/metrics")
	}
	addr, err := w.Start(*listen)
	if err != nil {
		fatalf("%v", err)
	}
	if !fresh {
		fmt.Printf("pawworker %d/%d serving %d partitions on %s\n", *index, *workers, len(mine), addr)
	}

	// Elastic mode: join handshake (the checksum proves master and worker
	// derived the same partition set), then heartbeats until shutdown.
	var hb *dist.Heartbeater
	if *joinAddr != "" {
		adv := *advertise
		if adv == "" {
			adv = addr
		}
		hb = dist.NewHeartbeater(*joinAddr)
		// Fleets come up in any order: retry a join that never reached the
		// master until the deadline, so workers started before the master still
		// converge. A join the master executed and refused is not retried — no
		// amount of waiting fixes disagreeing flags or a master without
		// -membership.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		resp, err := hb.Join(ctx, *index, adv, membership.Checksum(mine))
		for err != nil && ctx.Err() == nil && !errors.Is(err, dist.ErrRefused) {
			time.Sleep(500 * time.Millisecond)
			resp, err = hb.Join(ctx, *index, adv, membership.Checksum(mine))
		}
		cancel()
		if err != nil {
			fatalf("joining %s: %v", *joinAddr, err)
		}
		hb.Start(500 * time.Millisecond)
		if fresh {
			// A fresh joiner has no slot until the master assigns one.
			fmt.Printf("pawworker joined as slot %d, serving 0 partitions on %s\n", resp.Index, addr)
		}
		slog.Info("joined cluster", "master", *joinAddr, "slot", resp.Index,
			"epoch", resp.Epoch, "advertise", adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	if hb != nil {
		// Graceful leave: the master drains this worker's partitions onto the
		// rest of the fleet before we stop serving. A refused or timed-out
		// drain is logged and the worker exits anyway — the failure detector
		// and a forced rebalance recover the data from the replicas.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if _, err := hb.Leave(ctx); err != nil {
			slog.Warn("graceful leave failed, exiting undrained", "err", err)
		} else {
			slog.Info("drained and left the cluster")
		}
		cancel()
		hb.Close()
	}
	w.Close()
}

func loadData(path string) *dataset.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	d, err := dataset.Read(f)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	return d
}

func loadLayout(path string) *layout.Layout {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	l, err := layout.Decode(f)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	return l
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawworker: "+format+"\n", args...)
	os.Exit(1)
}
