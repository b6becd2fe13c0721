package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer exercises every instrument kind from many goroutines;
// run under -race (make race covers internal/obs) the test doubles as the
// data-race gate, and the final values pin down atomicity.
func TestConcurrentHammer(t *testing.T) {
	r := New()
	c := r.Counter("hammer_total")
	g := r.Gauge("hammer_gauge")
	hw := r.Gauge("hammer_highwater")
	tm := r.Timer("hammer_ns")
	h := r.Histogram("hammer_hist", []float64{10, 100, 1000})

	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				hw.SetMax(int64(i*perG + j))
				tm.Observe(time.Nanosecond)
				h.Observe(float64(j % 2000))
			}
		}(i)
	}
	wg.Wait()

	const n = goroutines * perG
	if got := c.Value(); got != n {
		t.Errorf("counter = %d, want %d", got, n)
	}
	if got := g.Value(); got != n {
		t.Errorf("gauge = %d, want %d", got, n)
	}
	if got := hw.Value(); got != n-1 {
		t.Errorf("high-water gauge = %d, want %d", got, n-1)
	}
	if got := tm.Count(); got != n {
		t.Errorf("timer count = %d, want %d", got, n)
	}
	if got, want := tm.TotalNs(), int64(n); got != want {
		t.Errorf("timer ns = %d, want %d", got, want)
	}
	if got := h.Count(); got != n {
		t.Errorf("histogram count = %d, want %d", got, n)
	}
	var bucketSum int64
	for _, b := range h.BucketCounts() {
		bucketSum += b
	}
	if bucketSum != n {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, n)
	}
}

// TestHistogramBucketBoundaries pins the boundary rule: an observation equal
// to a bound lands in that bound's bucket (cumulative le semantics), and
// anything beyond the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
		want   []int64 // per-bucket, last = +Inf
	}{
		{
			name:   "exact bounds are inclusive",
			bounds: []float64{1, 10, 100},
			obs:    []float64{1, 10, 100},
			want:   []int64{1, 1, 1, 0},
		},
		{
			name:   "just above a bound moves up",
			bounds: []float64{1, 10, 100},
			obs:    []float64{1.0000001, 10.5, 100.5},
			want:   []int64{0, 1, 1, 1},
		},
		{
			name:   "below first bound",
			bounds: []float64{1, 10},
			obs:    []float64{0, -5, 0.999},
			want:   []int64{3, 0, 0},
		},
		{
			name:   "overflow bucket",
			bounds: []float64{1},
			obs:    []float64{2, 3, math.Inf(1)},
			want:   []int64{0, 3},
		},
		{
			name:   "unsorted bounds are sorted at creation",
			bounds: []float64{100, 1, 10},
			obs:    []float64{0.5, 5, 50, 500},
			want:   []int64{1, 1, 1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(tc.bounds)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			got := h.BucketCounts()
			if len(got) != len(tc.want) {
				t.Fatalf("bucket count = %d, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("bucket[%d] = %d, want %d (buckets %v)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}

// TestDisabledRegistryZeroAlloc asserts the disabled path allocates nothing:
// a nil registry hands out nil instruments whose methods must not allocate
// (the same contract the router hot path relies on).
func TestDisabledRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	tm := r.Timer("x_ns")
	h := r.Histogram("x_hist", LatencyBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.SetMax(9)
		tm.Observe(time.Microsecond)
		sp := tm.Start()
		sp.End()
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.1f/run, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAlloc: even enabled, counters/gauges/histograms are
// allocation-free per observation.
func TestEnabledHotPathZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("x_total")
	h := r.Histogram("x_hist", LatencyBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(1e6)
	})
	if allocs != 0 {
		t.Fatalf("enabled hot-path instruments allocated %.1f/run, want 0", allocs)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := New()
	r.Counter("same_name")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name with a different kind must panic")
		}
	}()
	r.Gauge("same_name")
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := New()
	a := r.Counter("c_total")
	b := r.Counter("c_total")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counter does not share state")
	}
}

func TestSpanRecordsElapsed(t *testing.T) {
	r := New()
	tm := r.Timer("phase_ns")
	sp := tm.Start()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if tm.Count() != 1 {
		t.Fatalf("span count = %d, want 1", tm.Count())
	}
	if tm.TotalNs() < int64(time.Millisecond) {
		t.Fatalf("span recorded %dns, want >= 1ms", tm.TotalNs())
	}
}

func TestLabel(t *testing.T) {
	if got := Label("dist_worker_calls_total", "worker", "2"); got != `dist_worker_calls_total{worker="2"}` {
		t.Errorf("Label = %q", got)
	}
	if got := Label(`x{a="1"}`, "b", "2"); got != `x{a="1",b="2"}` {
		t.Errorf("Label merge = %q", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("q_total").Add(3)
	r.Gauge("inflight").Set(2)
	tm := r.Timer("phase_ns")
	tm.Observe(5 * time.Millisecond)
	h := r.Histogram("lat_ns", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	r.Counter(Label("per_worker_total", "worker", "0")).Add(7)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE q_total counter",
		"q_total 3",
		"inflight 2",
		"phase_ns_count 1",
		`lat_ns_bucket{le="100"} 1`,
		`lat_ns_bucket{le="1000"} 2`,
		`lat_ns_bucket{le="+Inf"} 3`,
		"lat_ns_count 3",
		`per_worker_total{worker="0"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerJSONAndText(t *testing.T) {
	r := New()
	r.Counter("j_total").Add(11)
	h := Handler(r)

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rw.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON decode: %v\n%s", err, rw.Body.String())
	}
	if snap.Counter("j_total") != 11 {
		t.Fatalf("JSON snapshot counter = %d, want 11", snap.Counter("j_total"))
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rw.Body.String(), "j_total 11") {
		t.Fatalf("text exposition missing counter:\n%s", rw.Body.String())
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := New()
	r.Counter("served_total").Add(1)
	srv, err := ServeWith("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "served_total 1") {
		t.Fatalf("metrics endpoint missing counter:\n%s", body[:n])
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp.StatusCode)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR", "": "INFO",
	} {
		lv, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lv.String() != want {
			t.Errorf("ParseLevel(%q) = %s, want %s", in, lv, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("invalid level must error")
	}
}

func TestServeWithHealthEndpoints(t *testing.T) {
	ready := false
	reason := "placement not installed"
	srv, err := ServeWith("127.0.0.1:0", New(), map[string]http.Handler{
		"/healthz": Healthz(),
		"/readyz":  Readyz(func() (bool, string) { return ready, reason }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 256)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		return resp.StatusCode, strings.TrimSpace(string(body[:n]))
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != reason {
		t.Fatalf("not-ready /readyz: %d %q, want 503 with the reason", code, body)
	}
	ready = true
	if code, body := get("/readyz"); code != http.StatusOK || body != "ok" {
		t.Fatalf("ready /readyz: %d %q", code, body)
	}
	// The metrics surface still rides the same listener.
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics alongside extras: %d", code)
	}
}
