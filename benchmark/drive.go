package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"paw/internal/dist"
)

// opTimeout bounds any single operation (a query, a migration): a hang fails
// the operation instead of the run.
const opTimeout = 10 * time.Second

// migrationsPerRound places one migration every round/8 (250 ms at the
// contract's 2 s rounds), 40 per run.
const migrationsPerRound = 8

// maxSamples caps the latencies one client keeps over the timed rounds; the
// buffers are allocated once so the timed loop never grows a slice.
const maxSamples = 1 << 19

// driver replays the statement list against a cluster and keeps the run's
// operation counts.
type driver struct {
	c  *cluster
	in *inputs
	// retryEpochRace allows one retry of a query that lost the race between
	// a cutover's retire and its own scatter (see README, finding 1).
	retryEpochRace bool

	mu                         sync.Mutex
	attempted, failed, retried int64
	mismatches                 int64
}

// tally is one goroutine's operation counts, merged into the driver under
// its mutex when a pass ends.
type tally struct {
	attempted, failed, retried, mismatches int64
}

func (d *driver) merge(t tally) {
	d.mu.Lock()
	d.attempted += t.attempted
	d.failed += t.failed
	d.retried += t.retried
	d.mismatches += t.mismatches
	d.mu.Unlock()
}

// query answers statement i through cl, traced or not, and judges the
// answer: an error, a partial result or a row count the oracle contradicts
// is a failed operation.
func (d *driver) query(ctx context.Context, cl *dist.MuxClient, i int, explain bool, t *tally) (dist.QueryResponse, bool) {
	t.attempted++
	resp, err := ask(ctx, cl, d.in.stmts[i], explain)
	if err != nil && d.retryEpochRace && strings.Contains(err.Error(), "no layout epoch") {
		t.retried++
		resp, err = ask(ctx, cl, d.in.stmts[i], explain)
	}
	switch {
	case err != nil:
		t.failed++
		logf("statement %d failed: %v", i, err)
		return resp, false
	case resp.Partial:
		t.failed++
		logf("statement %d answered partially", i)
		return resp, false
	case d.in.want[i] >= 0 && resp.Rows != d.in.want[i]:
		t.failed++
		t.mismatches++
		logf("statement %d returned %d rows, the dataset holds %d", i, resp.Rows, d.in.want[i])
		return resp, false
	}
	return resp, true
}

func ask(ctx context.Context, cl *dist.MuxClient, sql string, explain bool) (dist.QueryResponse, error) {
	if explain {
		return cl.Explain(ctx, sql)
	}
	return cl.QueryContext(ctx, sql)
}

// accountingPass sends every future statement once, in order, over the first
// client, and returns the bytes scanned and rows returned in total.
func (d *driver) accountingPass(ctx context.Context) (scanned, rows int64) {
	n := len(d.in.stmts)
	ctx, cancel := context.WithTimeout(ctx, opTimeout+time.Duration(n)*10*time.Millisecond)
	defer cancel()
	var t tally
	for i := 0; i < n; i++ {
		resp, _ := d.query(ctx, d.c.clients[0], i, false, &t)
		scanned += resp.BytesScanned
		rows += int64(resp.Rows)
	}
	d.merge(t)
	return scanned, rows
}

// loader is the closed loop: each client owns one connection and one share
// of the replayed statements, which it cycles through, sending the next
// statement when the previous one is answered. Disjoint shares (rather than
// one shared cycle entered at several offsets) keep the cache behaviour a
// property of the workload: on a shared cycle a client that falls in behind
// another is served from the entries the leader just cached, gets faster, and
// stays there.
type loader struct {
	d      *driver
	cursor []int
	// samples holds, per client, the latency of every answer since reset.
	samples [][]time.Duration
}

func newLoader(d *driver) *loader {
	l := &loader{d: d, cursor: make([]int, numClients), samples: make([][]time.Duration, numClients)}
	for g := range l.samples {
		l.samples[g] = make([]time.Duration, 0, maxSamples)
	}
	return l
}

// reset forgets the samples taken so far (the warm-up's).
func (l *loader) reset() {
	for g := range l.samples {
		l.samples[g] = l.samples[g][:0]
	}
}

// sorted returns the latencies of every client's answers from its from[g]-th
// on, ascending.
func (l *loader) sorted(from []int) []time.Duration {
	var all []time.Duration
	for g, s := range l.samples {
		all = append(all, s[from[g]:]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// marks returns how many samples each client holds now.
func (l *loader) marks() []int {
	m := make([]int, numClients)
	for g, s := range l.samples {
		m[g] = len(s)
	}
	return m
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[int(q*float64(len(sorted)-1))]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// run drives the closed loop for window and returns the clients' wall time.
// With a migrator, migrationsPerRound placement changes are applied beside
// the reads on a fixed schedule; the call returns once the schedule is done,
// but the wall time is the clients'.
func (l *loader) run(ctx context.Context, window time.Duration, mg *migrator) time.Duration {
	ctx, cancel := context.WithTimeout(ctx, window+opTimeout)
	defer cancel()
	n := l.d.in.replay
	start := time.Now()
	deadline := start.Add(window)
	var clients, background sync.WaitGroup
	if mg != nil {
		background.Add(1)
		go func() {
			defer background.Done()
			for k := 0; k < migrationsPerRound; k++ {
				due := start.Add(time.Duration(k) * window / migrationsPerRound)
				select {
				case <-time.After(time.Until(due)):
				case <-ctx.Done():
					return
				}
				mg.apply(ctx)
			}
		}()
	}
	for g := 0; g < numClients; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			lo, hi := g*n/numClients, (g+1)*n/numClients
			buf := l.samples[g]
			var t tally
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				i := lo + l.cursor[g]%(hi-lo)
				l.cursor[g]++
				_, ok := l.d.query(ctx, l.d.c.clients[g], i, false, &t)
				if ok && len(buf) < cap(buf) {
					buf = append(buf, time.Since(t0))
				}
			}
			l.samples[g] = buf
			l.d.merge(t)
		}(g)
	}
	clients.Wait()
	wall := time.Since(start)
	background.Wait()
	return wall
}
