package rtree

import (
	"math/rand"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

func src(n, dims int, seed int64) DatasetSource {
	data := dataset.Uniform(n, dims, seed)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return DatasetSource{Data: data, Rows: rows}
}

func TestExtractMBRsCoverage(t *testing.T) {
	s := src(2000, 2, 6)
	for _, k := range []int{1, 3, 6, 10, 20, 50, 100} {
		mbrs := ExtractMBRs(s, len(s.Rows), k)
		if len(mbrs) == 0 || len(mbrs) > k {
			t.Fatalf("k=%d produced %d MBRs", k, len(mbrs))
		}
		// Every point must be covered by at least one MBR.
		for i := 0; i < len(s.Rows); i++ {
			p := geom.Point{s.Coord(i, 0), s.Coord(i, 1)}
			covered := false
			for _, m := range mbrs {
				if m.Contains(p) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("k=%d: point %d not covered by any MBR", k, i)
			}
		}
	}
}

func TestExtractMBRsTighterWithMoreK(t *testing.T) {
	s := src(3000, 2, 7)
	area := func(mbrs []geom.Box) float64 {
		a := 0.0
		for _, m := range mbrs {
			a += m.Volume()
		}
		return a
	}
	a1 := area(ExtractMBRs(s, len(s.Rows), 1))
	a10 := area(ExtractMBRs(s, len(s.Rows), 10))
	a50 := area(ExtractMBRs(s, len(s.Rows), 50))
	// With uniform data the gain is modest but total covered area must not
	// grow as k increases.
	if a10 > a1*1.001 || a50 > a10*1.001 {
		t.Errorf("areas not monotone: k1=%v k10=%v k50=%v", a1, a10, a50)
	}
	// On cleanly clustered data the reduction must be substantial: two
	// tight clusters far apart — 2 MBRs skip the void between them.
	n := 400
	xs := make([]float64, n)
	ys := make([]float64, n)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		base := 0.0
		if i >= n/2 {
			base = 100
		}
		xs[i] = base + rng.Float64()
		ys[i] = base + rng.Float64()
	}
	cl := dataset.MustNew([]string{"x", "y"}, [][]float64{xs, ys})
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	cs := DatasetSource{Data: cl, Rows: rows}
	c1 := area(ExtractMBRs(cs, len(cs.Rows), 1))
	c2 := area(ExtractMBRs(cs, len(cs.Rows), 2))
	if c2 > c1*0.01 {
		t.Errorf("bimodal data: 2 MBRs cover %v of single-MBR area %v", c2, c1)
	}
}

func TestExtractMBRsEdgeCases(t *testing.T) {
	if got := ExtractMBRs(src(0, 2, 9), 0, 5); got != nil {
		t.Error("no points must produce no MBRs")
	}
	// Single point.
	s := src(1, 2, 10)
	mbrs := ExtractMBRs(s, 1, 5)
	if len(mbrs) != 1 || mbrs[0].Volume() != 0 {
		t.Errorf("single point: %v", mbrs)
	}
	// k greater than n.
	s = src(5, 2, 11)
	mbrs = ExtractMBRs(s, 5, 100)
	if len(mbrs) > 5 {
		t.Errorf("more MBRs (%d) than points", len(mbrs))
	}
}
