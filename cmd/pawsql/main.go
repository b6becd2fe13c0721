// Command pawsql is the SQL client for a pawmaster: one-shot with -sql, a
// REPL reading statements from stdin, or a quick closed-loop load driver
// with -concurrency.
//
//	pawsql -connect 127.0.0.1:7100 -sql "SELECT * FROM t WHERE l_quantity >= 10"
//	pawsql -connect 127.0.0.1:7100 -sql "SELECT * FROM t WHERE l_quantity >= 10" -explain
//	pawsql -connect 127.0.0.1:7100 -timeout 2s -partial
//	pawsql -connect 127.0.0.1:7100 -sql "SELECT * FROM t" -concurrency 16 -duration 10s
//
// -explain runs the statement as EXPLAIN ANALYZE: the master forces a trace
// (even with tracing disabled) and the client renders the returned span tree
// — routing, per-range scatter, per-attempt RPCs, and each touched worker's
// per-partition scan spans with rows/bytes/encoding-mix detail.
//
// Every mode speaks the one multiplexed frame protocol over one connection: a
// -timeout expiry abandons that query only (the REPL keeps its session), and
// load mode pipelines all in-flight queries, so the driver measures the
// serving path, not a per-connection handshake.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"paw/internal/dist"
	"paw/internal/trace"
)

func main() {
	var (
		connect     = flag.String("connect", "127.0.0.1:7100", "master address")
		sql         = flag.String("sql", "", "one-shot SQL statement (empty: REPL)")
		explain     = flag.Bool("explain", false, "EXPLAIN ANALYZE: run the statement with a forced trace and print its span tree")
		timeout     = flag.Duration("timeout", 0, "per-query deadline, shipped to the master and enforced on every worker scan (0: master default)")
		partial     = flag.Bool("partial", false, "accept partial results when partitions are unreachable (failed partitions are reported)")
		concurrency = flag.Int("concurrency", 0, "load mode: run -sql from this many goroutines over one multiplexed connection and report qps/p50/p99")
		duration    = flag.Duration("duration", 10*time.Second, "load mode: measurement window (with -concurrency)")
	)
	flag.Parse()

	if *concurrency > 0 && *sql == "" {
		fatalf("-concurrency requires -sql")
	}
	c, err := dist.DialMux(*connect)
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()
	c.SetAllowPartial(*partial)

	if *concurrency > 0 {
		if err := runLoad(c, *sql, *timeout, *concurrency, *duration); err != nil {
			fatalf("%v", err)
		}
		return
	}

	run := func(stmt string) {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		start := time.Now()
		var resp dist.QueryResponse
		var err error
		if *explain {
			resp, err = c.Explain(ctx, stmt)
		} else {
			resp, err = c.QueryContext(ctx, stmt)
		}
		wall := time.Since(start)
		cancel()
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		if *explain {
			trace.WriteTree(os.Stdout, resp.TraceID, resp.Spans)
		}
		fmt.Printf("%d rows (%d sub-queries, %d partitions, %.2f MB read) in %v\n",
			resp.Rows, resp.SubQueries, resp.PartitionsScanned,
			float64(resp.BytesScanned)/1e6, wall.Round(time.Microsecond))
		if resp.Partial {
			fmt.Printf("PARTIAL: %d partition(s) unreachable: %v\n",
				len(resp.FailedPartitions), resp.FailedPartitions)
		}
	}
	if *sql != "" {
		run(*sql)
		return
	}
	fmt.Println("connected; enter SQL, ctrl-D to exit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("pawsql> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" {
			continue
		}
		if strings.EqualFold(stmt, "exit") || strings.EqualFold(stmt, "quit") {
			return
		}
		run(stmt)
	}
}

// runLoad drives stmt from conc goroutines over cl's one multiplexed
// connection for the window and prints throughput and latency quantiles.
func runLoad(cl *dist.MuxClient, stmt string, timeout time.Duration, conc int, window time.Duration) error {
	// One untimed warmup query validates the statement (and primes the
	// master's worker links) before the clock starts.
	if _, err := cl.Query(stmt); err != nil {
		return err
	}

	latencies := make([][]time.Duration, conc)
	errs := make([]error, conc)
	deadline := time.Now().Add(window)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, timeout)
				}
				t0 := time.Now()
				_, err := cl.QueryContext(ctx, stmt)
				cancel()
				if err != nil {
					errs[g] = err
					return
				}
				latencies[g] = append(latencies[g], time.Since(t0))
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	if len(all) == 0 {
		return errors.New("no queries completed inside the window")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	fmt.Printf("%d queries in %v (%d goroutines, 1 connection)\n",
		len(all), elapsed.Round(time.Millisecond), conc)
	fmt.Printf("  %8.0f q/s   p50 %v   p99 %v   max %v\n",
		float64(len(all))/elapsed.Seconds(),
		all[len(all)/2].Round(time.Microsecond),
		all[len(all)*99/100].Round(time.Microsecond),
		all[len(all)-1].Round(time.Microsecond))
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pawsql: "+format+"\n", args...)
	os.Exit(1)
}
