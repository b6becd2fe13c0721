package dist

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"paw/internal/faultnet"
	"paw/internal/trace"
)

// tracedConfig is the default test policy for the tracing suite: the result
// cache is disabled so repeated statements re-execute — the differential
// test compares computed responses, not cached copies.
func tracedConfig() Config {
	cfg := DefaultConfig()
	cfg.ResultCacheSize = 0
	return cfg
}

var tracedStatements = []string{
	"SELECT * FROM t WHERE l_quantity >= 10 AND l_quantity <= 20",
	"SELECT * FROM t WHERE l_shipdate BETWEEN 100 AND 800",
	"SELECT * FROM t WHERE l_quantity <= 5 OR l_quantity >= 45",
	"SELECT * FROM t",
}

// TestTracedVsUntracedIdentical is the differential oracle for the tracing
// layer: two identically-built clusters, one tracing every query, must
// produce deeply equal responses over the wire — spans never leak into
// untraced responses, and instrumentation never perturbs results.
func TestTracedVsUntracedIdentical(t *testing.T) {
	plain := startCluster(t, 3, tracedConfig(), nil)
	tracer := trace.New(trace.Config{SampleEvery: 1})
	traced := startCluster(t, 3, tracedConfig(), tracer)

	for _, sql := range tracedStatements {
		want, err := plain.client.Query(sql)
		if err != nil {
			t.Fatalf("%q untraced: %v", sql, err)
		}
		got, err := traced.client.Query(sql)
		if err != nil {
			t.Fatalf("%q traced: %v", sql, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: traced response diverges\n traced: %+v\nuntraced: %+v", sql, got, want)
		}
		if got.TraceID != 0 || got.Spans != nil {
			t.Errorf("%q: untraced request carried trace payload: id=%d spans=%d", sql, got.TraceID, len(got.Spans))
		}
	}
	// The traced master really did sample: the test is not vacuous.
	if n := len(tracer.Traces()); n != len(tracedStatements) {
		t.Fatalf("tracer retained %d traces, want %d", n, len(tracedStatements))
	}
}

// sumScanSpans sums rows/bytes attributes over the per-partition scan spans.
func sumScanSpans(spans []trace.Span) (scans int, rows, bytesRead, bytesSkipped int64) {
	for _, sp := range spans {
		if sp.Name != "scan" {
			continue
		}
		scans++
		for _, a := range sp.Attrs {
			switch a.K {
			case trace.KeyRows:
				rows += a.V
			case trace.KeyBytesRead:
				bytesRead += a.V
			case trace.KeyBytesSkipped:
				bytesSkipped += a.V
			}
		}
	}
	return
}

// TestExplainEndToEnd drives EXPLAIN ANALYZE over the wire and checks the
// assembled tree against the response's own accounting: the root span is a
// "query" timed within the client-measured wall clock, and the per-partition
// scan spans sum back to the response's rows and byte counters.
func TestExplainEndToEnd(t *testing.T) {
	tracer := trace.New(trace.Config{SampleEvery: 0}) // forced traces only
	tc := startCluster(t, 3, tracedConfig(), tracer)
	sql := "SELECT * FROM t WHERE l_quantity >= 15 AND l_quantity <= 35"

	start := time.Now()
	resp, err := tc.client.Explain(context.Background(), sql)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == 0 || len(resp.Spans) == 0 {
		t.Fatalf("explain returned no trace: id=%d spans=%d", resp.TraceID, len(resp.Spans))
	}
	root := resp.Spans[0]
	if root.Name != "query" || root.Parent != 0 {
		t.Fatalf("first span is %q (parent %d), want root \"query\"", root.Name, root.Parent)
	}
	if root.Dur <= 0 || root.Dur > int64(wall) {
		t.Fatalf("root span duration %v outside (0, wall=%v]", time.Duration(root.Dur), wall)
	}
	for _, name := range []string{"route", "scatter", "rpc", "worker_batch", "scan"} {
		found := false
		for _, sp := range resp.Spans {
			if sp.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace has no %q span", name)
		}
	}
	scans, rows, bytesRead, bytesSkipped := sumScanSpans(resp.Spans)
	if scans != resp.PartitionsScanned {
		t.Errorf("%d scan spans, response scanned %d partitions", scans, resp.PartitionsScanned)
	}
	if rows != int64(resp.Rows) {
		t.Errorf("scan spans sum to %d rows, response has %d", rows, resp.Rows)
	}
	if bytesRead != resp.BytesScanned {
		t.Errorf("scan spans sum to %d bytes read, response has %d", bytesRead, resp.BytesScanned)
	}
	if bytesSkipped != resp.BytesSkipped {
		t.Errorf("scan spans sum to %d bytes skipped, response has %d", bytesSkipped, resp.BytesSkipped)
	}

	// The forced trace was also retained server-side for /traces.
	if _, ok := tracer.Get(resp.TraceID); !ok {
		t.Error("explain trace not retained by the tracer")
	}

	// The tree renders without panicking and names the trace.
	var buf bytes.Buffer
	trace.WriteTree(&buf, resp.TraceID, resp.Spans)
	if !strings.Contains(buf.String(), fmt.Sprintf("%016x", resp.TraceID)) {
		t.Errorf("rendered tree does not name the trace:\n%s", buf.String())
	}
}

// TestExplainWithoutTracer: EXPLAIN must work on a master with tracing
// disabled entirely — the forced trace is assembled locally and returned,
// just never retained.
func TestExplainWithoutTracer(t *testing.T) {
	tc := startCluster(t, 2, DefaultConfig(), nil)
	resp, err := tc.client.Explain(context.Background(), "SELECT * FROM t WHERE l_quantity >= 40")
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == 0 || len(resp.Spans) == 0 {
		t.Fatalf("explain without a tracer returned no trace: id=%d spans=%d", resp.TraceID, len(resp.Spans))
	}
}

// TestSlowQueryLog: queries over the threshold emit one structured log line
// carrying the trace ID and the stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(prev)

	tracer := trace.New(trace.Config{SampleEvery: 1})
	cfg := tracedConfig()
	cfg.SlowQuery = time.Nanosecond // everything is slow
	tc := startCluster(t, 2, cfg, tracer)

	if _, err := tc.client.Query("SELECT * FROM t WHERE l_quantity >= 30"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query line logged:\n%s", out)
	}
	for _, field := range []string{"trace_id=", "elapsed=", "route_ns=", "scatter_ns=", "partitions=", "rows=", "sql="} {
		if !strings.Contains(out, field) {
			t.Errorf("slow-query line missing %s:\n%s", field, out)
		}
	}
	if strings.Contains(out, "trace_id=untraced") {
		t.Error("sampled slow query logged as untraced")
	}

	// With the tracer removed the line still logs, marked untraced.
	buf.Reset()
	tc.master.SetTracer(nil)
	if _, err := tc.client.Query("SELECT * FROM t WHERE l_quantity >= 35"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace_id=untraced") {
		t.Fatalf("unsampled slow query must log trace_id=untraced:\n%s", buf.String())
	}
}

// TestChaosTracingFailover: with tracing forced on, a query surviving a
// dead primary must carry the failure in its trace — an errored rpc span
// plus a failover-round rpc span — and the traced cluster must tear down
// without leaking goroutines.
func TestChaosTracingFailover(t *testing.T) {
	base := runtime.NumGoroutine()
	tc := startChaosCluster(t, 2, 2, nil, fastChaosConfig())
	tracer := trace.New(trace.Config{SampleEvery: 1})
	tc.master.SetTracer(tracer)

	tc.workers[0].Close()
	resp, err := tc.master.ExplainContext(context.Background(), chaosSQL)
	if err != nil {
		t.Fatalf("replicated query must survive a dead primary: %v", err)
	}
	if resp.Rows != tc.data.NumRows() {
		t.Fatalf("rows = %d, want %d", resp.Rows, tc.data.NumRows())
	}
	var errored, failover bool
	for _, sp := range resp.Spans {
		if sp.Name != "rpc" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.K == trace.KeyError && a.V == 1 {
				errored = true
			}
			if a.K == trace.KeyFailoverRound && a.V > 0 {
				failover = true
			}
		}
	}
	if !errored {
		t.Error("trace has no errored rpc span for the dead primary")
	}
	if !failover {
		t.Error("trace has no failover-round rpc span for the replica retry")
	}

	// Retry visibility: reset the survivor's next connection and confirm the
	// retried attempt is numbered in its rpc span.
	tc2 := startChaosCluster(t, 1, 1, map[int]faultnet.Script{
		0: {Seed: 5, Rules: []faultnet.Rule{
			{Conn: 0, Op: faultnet.OnRead, Call: 0, Action: faultnet.Reset},
		}},
	}, fastChaosConfig())
	tc2.master.SetTracer(tracer)
	r2, err := tc2.master.ExplainContext(context.Background(), chaosSQL)
	if err != nil {
		t.Fatalf("query must survive a connection reset: %v", err)
	}
	var retried bool
	for _, sp := range r2.Spans {
		if sp.Name != "rpc" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.K == trace.KeyAttempt && a.V > 0 {
				retried = true
			}
		}
	}
	if !retried {
		t.Error("trace has no retried rpc span after a connection reset")
	}

	tc.master.Close()
	tc2.master.Close()
	for _, wk := range append(tc.workers, tc2.workers...) {
		wk.Close()
	}
	checkNoLeak(t, base)
}

// TestMasterReadiness: /readyz truth table — not started, serving, mid-
// migration (observed through a worker slowed by faultnet), closed.
func TestMasterReadiness(t *testing.T) {
	tc := buildMigFixture(t, 2, map[int]faultnet.Script{
		0: {Seed: 1, Rules: []faultnet.Rule{
			{Conn: -1, Op: faultnet.OnRead, Call: 0, Action: faultnet.Delay, Duration: 300 * time.Millisecond},
		}},
	}, fastMigConfig())

	if ok, reason := tc.master.Ready(); ok || !strings.Contains(reason, "not serving") {
		t.Fatalf("unstarted master: ready=%v reason=%q", ok, reason)
	}
	if _, err := tc.master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if ok, reason := tc.master.Ready(); !ok {
		t.Fatalf("serving master not ready: %q", reason)
	}

	applied := make(chan error, 1)
	go func() { applied <- tc.master.ApplyMigration(context.Background(), tc.mig) }()
	sawMigration := false
	for !sawMigration {
		select {
		case err := <-applied:
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			// Migration finished before a poll caught it mid-flight; the
			// delayed worker makes this practically impossible, but don't
			// hang if timings change.
			t.Log("migration completed before readiness poll observed it")
			sawMigration = true
		default:
			if ok, reason := tc.master.Ready(); !ok && strings.Contains(reason, "migration") {
				sawMigration = true
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if err := <-applied; err != nil {
		t.Fatalf("apply: %v", err)
	}
	if ok, reason := tc.master.Ready(); !ok {
		t.Fatalf("master not ready after migration settled: %q", reason)
	}
	tc.master.Close()
	if ok, reason := tc.master.Ready(); ok || !strings.Contains(reason, "closed") {
		t.Fatalf("closed master: ready=%v reason=%q", ok, reason)
	}
}

// TestWorkerReadiness: a serving worker is ready, a closed one is not.
func TestWorkerReadiness(t *testing.T) {
	tc := startCluster(t, 1, DefaultConfig(), nil)
	if ok, reason := tc.workers[0].Ready(); !ok {
		t.Fatalf("serving worker not ready: %q", reason)
	}
	tc.workers[0].Close()
	if ok, _ := tc.workers[0].Ready(); ok {
		t.Fatal("closed worker reports ready")
	}

	wk := NewWorker(nil, nil) // never started, which a fleet worker always is
	if ok, _ := wk.Ready(); ok {
		t.Fatal("never-started worker reports ready")
	}
}
