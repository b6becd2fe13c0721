// Command pawworker serves the stored partitions a pawmaster asks it for.
// It takes the directory of partition files pawcli build -store wrote and the
// layout file written beside it, reads only the layout at boot, and reads a
// partition's file the first time a request names it, refusing one whose rows
// are not what the layout records. Placement is the master's alone: every
// worker of a static fleet gets the same directory, shared or copied, and
// opens only what it is sent.
//
//	pawgen gen -dataset tpch -rows 120000 -out data.pawd
//	pawcli build -in data.pawd -method paw -layout layout.pawl -store parts
//	pawworker -store parts -layout layout.pawl -listen 127.0.0.1:7101 &
//	pawworker -store parts -layout layout.pawl -listen 127.0.0.1:7102 &
//
// With -join the worker registers with a membership-enabled master
// (pawmaster -membership) instead of assuming a static fleet, and a
// background heartbeat every 500 ms keeps it alive in the master's failure
// detector. The join names the layout its store was written for: the master
// gives a slot that hosts partitions only to a worker with a store of its boot
// layout, and only while it still serves that layout. A worker started with
// -join and no -store/-layout is a fresh scale-out node: it joins empty and
// receives partitions through the master's live rebalancing. On SIGINT a
// joined worker asks for a graceful leave — the master drains its partitions
// before the process exits (or after two minutes, drained or not).
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
	"paw/internal/dist"
	"paw/internal/layout"
	"paw/internal/obs"
)

func main() {
	var (
		storeDir   = flag.String("store", "", "directory of partition files (pawcli build -store); optional with -join (a fresh joiner starts empty)")
		layoutPath = flag.String("layout", "", "layout file (.pawl) the store was written for; goes with -store")
		index      = flag.Int("index", -1, "the slot to rejoin with -join (-1: the master assigns one)")
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
	fresh := *storeDir == "" && *layoutPath == ""
	if fresh && *joinAddr == "" {
		fatalf("-store and -layout are required (only a -join worker may start empty)")
	}
	if !fresh && (*storeDir == "" || *layoutPath == "") {
		fatalf("-store and -layout go together")
	}

	var (
		w *dist.Worker
		l *layout.Layout
	)
	if fresh {
		w = dist.NewWorker(nil, nil)
	} else {
		var err error
		if l, err = layout.ReadFile(*layoutPath); err != nil {
			fatalf("%v", err)
		}
		store, err := blockstore.Open(*storeDir, l)
		if err != nil {
			fatalf("%v", err)
		}
		all := make([]layout.ID, len(l.Parts))
		for i, p := range l.Parts {
			all[i] = p.ID
		}
		w = dist.NewWorker(store, all)
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
		fmt.Printf("pawworker serving the %d partitions of %s on %s\n", len(l.Parts), *storeDir, addr)
	}

	// Elastic mode: join handshake, then heartbeats until shutdown.
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
		// amount of waiting gives a store another layout or a master
		// -membership.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		resp, err := hb.Join(ctx, *index, adv, l)
		for err != nil && ctx.Err() == nil && !errors.Is(err, dist.ErrRefused) {
			time.Sleep(500 * time.Millisecond)
			resp, err = hb.Join(ctx, *index, adv, l)
		}
		cancel()
		if err != nil {
			fatalf("joining %s: %v", *joinAddr, err)
		}
		hb.Start()
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawworker: "+format+"\n", args...)
	os.Exit(1)
}
