package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"paw/internal/geom"
)

func q2(l0, l1, h0, h1 float64) Query {
	return Query{Box: geom.Box{Lo: geom.Point{l0, l1}, Hi: geom.Point{h0, h1}}}
}

func TestDist(t *testing.T) {
	a := q2(0, 0, 10, 10)
	cases := []struct {
		b    Query
		want float64
	}{
		{q2(0, 0, 10, 10), 0},
		{q2(1, 0, 10, 10), 1},
		{q2(0, 0, 10, 13), 3},
		{q2(-2, 1, 9, 11), 2},
	}
	for _, c := range cases {
		if got := Dist(a, c.b); got != c.want {
			t.Errorf("Dist = %v, want %v", got, c.want)
		}
		if got := Dist(c.b, a); got != c.want {
			t.Errorf("Dist not symmetric")
		}
	}
}

func TestExtend(t *testing.T) {
	w := Workload{q2(1, 1, 2, 2)}
	e := w.Extend(0.5)
	want := geom.Box{Lo: geom.Point{0.5, 0.5}, Hi: geom.Point{2.5, 2.5}}
	if !e[0].Box.Equal(want) {
		t.Errorf("Extend = %v, want %v", e[0].Box, want)
	}
	// Original untouched.
	if !w[0].Box.Equal(q2(1, 1, 2, 2).Box) {
		t.Error("Extend mutated the input workload")
	}
}

func TestClip(t *testing.T) {
	w := Workload{q2(0, 0, 4, 4), q2(8, 8, 9, 9), q2(3, 3, 6, 6)}
	p := geom.Box{Lo: geom.Point{2, 2}, Hi: geom.Point{5, 5}}
	clipped := w.Clip(p)
	if len(clipped) != 2 {
		t.Fatalf("Clip kept %d queries, want 2", len(clipped))
	}
	if !clipped[0].Box.Equal(geom.Box{Lo: geom.Point{2, 2}, Hi: geom.Point{4, 4}}) {
		t.Errorf("clip wrong: %v", clipped[0].Box)
	}
}

func TestSplitHalves(t *testing.T) {
	w := Workload{
		{Box: q2(0, 0, 1, 1).Box, Seq: 3},
		{Box: q2(1, 1, 2, 2).Box, Seq: 1},
		{Box: q2(2, 2, 3, 3).Box, Seq: 2},
		{Box: q2(3, 3, 4, 4).Box, Seq: 0},
	}
	h1, h2 := w.SplitHalves()
	if len(h1) != 2 || len(h2) != 2 {
		t.Fatalf("halves: %d, %d", len(h1), len(h2))
	}
	if h1[0].Seq != 0 || h1[1].Seq != 1 || h2[0].Seq != 2 || h2[1].Seq != 3 {
		t.Errorf("halves not ordered by Seq: %v %v", h1, h2)
	}
	// Odd length: first half gets the extra query.
	h1, h2 = w[:3].SplitHalves()
	if len(h1) != 2 || len(h2) != 1 {
		t.Errorf("odd split: %d, %d", len(h1), len(h2))
	}
}

func TestUniformGenerator(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 200}}
	p := Defaults(500, 42)
	w := Uniform(dom, p)
	if len(w) != 500 {
		t.Fatalf("generated %d queries", len(w))
	}
	for _, q := range w {
		if !dom.ContainsBox(q.Box) {
			t.Fatalf("query %v escapes the domain", q.Box)
		}
		for d := 0; d < 2; d++ {
			maxLen := p.MaxRangeFrac * (dom.Hi[d] - dom.Lo[d])
			if ext := q.Box.Hi[d] - q.Box.Lo[d]; ext > maxLen+1e-9 {
				t.Fatalf("query extent %v exceeds γ·len = %v", ext, maxLen)
			}
		}
	}
	// Determinism.
	w2 := Uniform(dom, p)
	for i := range w {
		if !w[i].Box.Equal(w2[i].Box) {
			t.Fatal("Uniform not deterministic")
		}
	}
}

func TestSkewedGenerator(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	p := Defaults(1000, 7)
	p.Centers = 1
	w := Skewed(dom, p)
	if len(w) != 1000 {
		t.Fatalf("generated %d queries", len(w))
	}
	for _, q := range w {
		if !dom.ContainsBox(q.Box) {
			t.Fatalf("query %v escapes the domain", q.Box)
		}
	}
	// Skewness: query centers should concentrate. Compare the variance of
	// skewed centers against uniform ones.
	varOf := func(w Workload) float64 {
		mean, n := 0.0, float64(len(w))
		for _, q := range w {
			mean += (q.Box.Lo[0] + q.Box.Hi[0]) / 2
		}
		mean /= n
		v := 0.0
		for _, q := range w {
			c := (q.Box.Lo[0] + q.Box.Hi[0]) / 2
			v += (c - mean) * (c - mean)
		}
		return v / n
	}
	u := Uniform(dom, p)
	if varOf(w) > varOf(u)*0.5 {
		t.Errorf("skewed workload variance %v not clearly below uniform %v", varOf(w), varOf(u))
	}
}

func TestFutureIsSimilar(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	hist := Uniform(dom, Defaults(40, 1))
	const delta = 2.0
	fut := Future(hist, delta, 1, 99)
	if len(fut) != len(hist) {
		t.Fatalf("future size %d", len(fut))
	}
	ok, err := AreSimilar(hist, fut, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Future output must be δ-similar to its source")
	}
	// With ratio 3.
	fut3 := Future(hist, delta, 3, 5)
	if len(fut3) != 3*len(hist) {
		t.Fatalf("ratio-3 future size %d", len(fut3))
	}
	ok, err = AreSimilar(hist, fut3, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ratio-3 future must be δ-similar")
	}
}

func TestAreSimilarRejects(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	hist := Uniform(dom, Defaults(10, 1))
	// A faraway workload is not similar for small delta.
	far := hist.Clone()
	for i := range far {
		for d := range far[i].Box.Lo {
			far[i].Box.Lo[d] += 50
			far[i].Box.Hi[d] += 50
		}
	}
	ok, err := AreSimilar(hist, far, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("shifted workload must not be 1-similar")
	}
	// 50.001 rather than 50 exactly: (x+50)-x can round above 50 in float64.
	ok, err = AreSimilar(hist, far, 50.001)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("shifted workload must be 50.001-similar")
	}
	// Divisibility requirement.
	if _, err := AreSimilar(hist, hist[:7], 1); err == nil {
		t.Error("non-divisible sizes must error")
	}
	if _, err := AreSimilar(nil, hist, 1); err == nil {
		t.Error("empty QH must error")
	}
}

// TestAreSimilarCapacity verifies condition (iii): each historical query is
// used exactly |QF|/|QH| times. Two historical queries, four future queries
// all close to the first historical query only — must fail because the
// second historical query would be starved.
func TestAreSimilarCapacity(t *testing.T) {
	hist := Workload{q2(0, 0, 1, 1), q2(50, 50, 51, 51)}
	fut := Workload{q2(0, 0, 1, 1), q2(0.1, 0, 1, 1), q2(0, 0.1, 1, 1), q2(0.1, 0.1, 1.1, 1.1)}
	ok, err := AreSimilar(hist, fut, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("matching must respect per-historical-query capacity")
	}
	// With a threshold large enough to reach the far query it succeeds.
	ok, _ = AreSimilar(hist, fut, 51)
	if !ok {
		t.Error("large threshold must succeed")
	}
}

func TestMinimalDeltaExact(t *testing.T) {
	// Construct a case with a known bottleneck: identical workloads → 0.
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	hist := Uniform(dom, Defaults(20, 3))
	d, err := MinimalDelta(hist, hist)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("MinimalDelta(w, w) = %v, want 0", d)
	}
	// Shift by exactly 5 in one dim: bottleneck must be 5.
	shifted := hist.Clone()
	for i := range shifted {
		shifted[i].Box.Lo[0] += 5
		shifted[i].Box.Hi[0] += 5
	}
	d, err = MinimalDelta(hist, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-5) > 1e-9 {
		// The bottleneck can be < 5 when some other historical query happens
		// to be closer than the shifted self. Verify minimality instead.
		t.Logf("bottleneck %v < 5: cross-matching found a shorter assignment", d)
	}
	verifyMinimality(t, hist, shifted, d)
}

func verifyMinimality(t *testing.T, hist, fut Workload, d float64) {
	t.Helper()
	ok, err := AreSimilar(hist, fut, d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("workloads must be %v-similar", d)
	}
	if d > 0 {
		ok, err = AreSimilar(hist, fut, d*(1-1e-9)-1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("δ′=%v is not minimal", d)
		}
	}
}

// TestMinimalDeltaRandom cross-checks minimality on random instances.
func TestMinimalDeltaRandom(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{10, 10}}
	for seed := int64(0); seed < 10; seed++ {
		p := Defaults(16, seed)
		hist := Uniform(dom, p)
		p.Seed = seed + 100
		fut := Uniform(dom, p)
		d, err := MinimalDelta(hist, fut)
		if err != nil {
			t.Fatal(err)
		}
		verifyMinimality(t, hist, fut, d)
	}
}

func TestEstimateDelta(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	hist := Uniform(dom, Defaults(30, 2))
	// Build a 60-query history whose second half is the first half moved by
	// at most 3: the estimate must be <= 3 and > 0.
	fut := Future(hist, 3, 1, 77)
	all := make(Workload, 0, 60)
	for i, q := range hist {
		all = append(all, Query{Box: q.Box, Seq: int64(i)})
	}
	for i, q := range fut {
		all = append(all, Query{Box: q.Box, Seq: int64(30 + i)})
	}
	d, err := EstimateDelta(all)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 3+1e-9 {
		t.Errorf("EstimateDelta = %v, want in (0, 3]", d)
	}
	if _, err := EstimateDelta(all[:1]); err == nil {
		t.Error("single-query history must error")
	}
	// The strict variant also recovers a bound here (halves match 1:1 by
	// construction) and can never be below the capacity-free estimate.
	ds, err := estimateDeltaStrict(all)
	if err != nil {
		t.Fatal(err)
	}
	if ds < d-1e-12 {
		t.Errorf("strict estimate %v below capacity-free %v", ds, d)
	}
	if ds <= 0 || ds > 3+1e-9 {
		t.Errorf("estimateDeltaStrict = %v, want in (0, 3]", ds)
	}
	if _, err := estimateDeltaStrict(all[:1]); err == nil {
		t.Error("single-query history must error (strict)")
	}
}

// estimateDeltaStrict is the literal §IV-E procedure: the minimal δ′ making
// the two history halves δ′-similar under the full Definition 2, capacity
// condition included. See EstimateDelta for why this degenerates on
// clustered workloads. When the halves' sizes differ, the larger half is
// trimmed to the divisible prefix.
func estimateDeltaStrict(hist Workload) (float64, error) {
	if len(hist) < 2 {
		return 0, fmt.Errorf("workload: need at least 2 queries to estimate delta, have %d", len(hist))
	}
	h1, h2 := hist.SplitHalves()
	// Definition 2 matches QF against QH with |QF| divisible by |QH|; here
	// QH=h1, QF=h2. SplitHalves gives |h1| >= |h2|; trim h1 to |h2| so the
	// ratio is exactly 1.
	if len(h1) > len(h2) {
		h1 = h1[:len(h2)]
	}
	return MinimalDelta(h1, h2)
}

// TestEstimateDeltaClustered demonstrates why the capacity-free estimator is
// the default: two history halves covering the same two clusters with
// *different* per-cluster counts. The capacity-free estimate stays at the
// intra-cluster scale; the strict one is forced across clusters.
func TestEstimateDeltaClustered(t *testing.T) {
	mk := func(cx float64, n int, seqBase int64) Workload {
		var w Workload
		for i := 0; i < n; i++ {
			off := float64(i) * 0.01
			w = append(w, Query{
				Box: geom.Box{Lo: geom.Point{cx + off, 0}, Hi: geom.Point{cx + off + 1, 1}},
				Seq: seqBase + int64(i),
			})
		}
		return w
	}
	// Older half: 3 queries at cluster A, 1 at cluster B (far away).
	// Newer half: 1 at A, 3 at B.
	old := append(mk(0, 3, 0), mk(100, 1, 3)...)
	newer := append(mk(0.5, 1, 4), mk(100.5, 3, 5)...)
	all := append(old, newer...)
	d, err := EstimateDelta(all)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1 {
		t.Errorf("capacity-free estimate %v should stay at the intra-cluster scale", d)
	}
	ds, err := estimateDeltaStrict(all)
	if err != nil {
		t.Fatal(err)
	}
	if ds < 50 {
		t.Errorf("strict estimate %v should be forced across clusters (~100)", ds)
	}
}

func TestMixRandom(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	w := Uniform(dom, Defaults(100, 4))
	mixed := MixRandom(w, dom, 30, 0.1, 9)
	if len(mixed) != len(w) {
		t.Fatal("size changed")
	}
	changed := 0
	for i := range w {
		if !w[i].Box.Equal(mixed[i].Box) {
			changed++
		}
	}
	if changed != 30 {
		t.Errorf("changed %d queries, want 30", changed)
	}
	// 0%% and 100%% edges.
	if m := MixRandom(w, dom, 0, 0.1, 9); !m[0].Box.Equal(w[0].Box) {
		t.Error("0% mix must not change anything")
	}
	m := MixRandom(w, dom, 100, 0.1, 9)
	same := 0
	for i := range w {
		if w[i].Box.Equal(m[i].Box) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("100%% mix left %d queries unchanged", same)
	}
}

// Property: Lemma 1's geometric core — every query of a δ-similar future
// workload is contained in the extension of its matched historical query.
// Since Future matches q'_{i,r} to hist[i], check containment directly.
func TestExtendContainsFutureProperty(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{50, 50}}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 50; iter++ {
		delta := rng.Float64() * 5
		hist := Uniform(dom, Defaults(20, rng.Int63()))
		ext := hist.Extend(delta)
		fut := Future(hist, delta, 2, rng.Int63())
		for i, q := range fut {
			if !ext[i/2].Box.ContainsBox(q.Box) {
				t.Fatalf("extended query %v does not contain future %v (δ=%v)", ext[i/2].Box, q.Box, delta)
			}
		}
	}
}
