package main

import (
	"io"
	"reflect"
	"regexp"
	"testing"
	"time"

	"paw/internal/trace"
)

// smokeConfig is a run at 1/20 of the data with 200 ms rounds.
func smokeConfig(sp spec, seed int64, traced bool) config {
	return config{spec: sp, seed: seed, round: 200 * time.Millisecond, warmup: 100 * time.Millisecond, traced: traced, scale: 20, setups: 1}
}

// TestSmoke runs every workload once, small, and checks that the binary and
// BENCHMARK.json name the same workloads and the same metrics with the same
// units, that every metric is emitted, and that no operation failed.
func TestSmoke(t *testing.T) {
	logOut = io.Discard
	c, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the binary has %d", len(c.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, sp := range specs {
		if c.Workloads[i].Name != sp.name || c.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, sp.name, sp.why)
		}
		rep, err := run(smokeConfig(sp, 1, true))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", sp.name, rep.correct, rep.failed, rep.attempted)
		}
		want := map[string]string{}
		for _, m := range c.EndToEnd {
			want[m.Name] = m.Unit
		}
		checkMetrics(t, sp.name+" end_to_end", rep.e2e, want, name)
		want = map[string]string{}
		for _, m := range c.PerLayer {
			want[m.Name] = m.Unit
		}
		checkMetrics(t, sp.name+" per_layer", rep.layers, want, name)
		for k, m := range rep.e2e {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", sp.name, k, m.Value)
			}
		}
		if sp.migrate {
			if got := rep.layers["dist.migrations_done"].Value; got != rounds*migrationsPerRound {
				t.Errorf("%s: %v migrations done, want %d", sp.name, got, rounds*migrationsPerRound)
			}
		}
	}
}

func checkMetrics(t *testing.T, what string, got metrics, want map[string]string, name *regexp.Regexp) {
	t.Helper()
	for k, unit := range want {
		m, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not emitted", what, k)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, k, m.Unit, unit)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: metric %s is emitted but not in BENCHMARK.json", what, k)
		}
		if !name.MatchString(k) {
			t.Errorf("%s: metric name %q is outside the contract's alphabet", what, k)
		}
	}
}

// TestSeedDeterminism checks that a seed fixes the inputs and the counts
// taken with one client, and that another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	logOut = io.Discard
	sp := specs[0]
	a, b, other := generate(sp, 1, 20), generate(sp, 1, 20), generate(sp, 2, 20)
	if !reflect.DeepEqual(a.stmts, b.stmts) {
		t.Error("equal seeds gave different statement lists")
	}
	if reflect.DeepEqual(a.stmts, other.stmts) {
		t.Error("different seeds gave the same statement list")
	}
	scan := func(seed int64) float64 {
		rep, err := run(smokeConfig(sp, seed, false))
		if err != nil {
			t.Fatal(err)
		}
		return rep.e2e["scan_bytes_per_query"].Value
	}
	s1, s1again, s2 := scan(1), scan(1), scan(2)
	if s1 != s1again {
		t.Errorf("scan_bytes_per_query for seed 1: %v, then %v", s1, s1again)
	}
	if s1 == s2 {
		t.Errorf("scan_bytes_per_query is %v for seed 1 and for seed 2", s1)
	}
}

// TestSpanSelf pins the self-time rule: a span's duration minus the union of
// its children's intervals, overlapping children counted once.
func TestSpanSelf(t *testing.T) {
	self := map[string]int64{}
	root := spanSelf(testSpans, self)
	if root != 100 {
		t.Errorf("root duration %d, want 100", root)
	}
	want := map[string]int64{"query": 100 - 70, "scatter": 70 - 50, "rpc": 30 + 40}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// testSpans: query [0,100) > scatter [10,80) > rpc [20,50) and rpc [30,70).
var testSpans = []trace.Span{
	{ID: 1, Parent: 0, Name: "query", Start: 0, Dur: 100},
	{ID: 2, Parent: 1, Name: "scatter", Start: 10, Dur: 70},
	{ID: 3, Parent: 2, Name: "rpc", Start: 20, Dur: 30},
	{ID: 4, Parent: 2, Name: "rpc", Start: 30, Dur: 40},
}
