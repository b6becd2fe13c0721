package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortMedianCut is the sort-based median cut that Select replaced, kept as
// the oracle: sort, read index n/2, and if that is the maximum step down to
// the largest value below it by binary search.
func sortMedianCut(vals []float64) (median, cut float64, nLeft int, ok bool) {
	mn, mx := vals[0], vals[0]
	for _, v := range vals {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn == mx {
		return 0, 0, 0, false
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	m := s[len(s)/2]
	median = m
	if m == mx {
		i := sort.SearchFloat64s(s, m) - 1
		if i < 0 {
			return 0, 0, 0, false
		}
		m = s[i]
	}
	return median, m, sort.Search(len(s), func(i int) bool { return s[i] > m }), true
}

// sameRank reports whether a and b are the same value up to the sign of a
// zero (the oracle's sort may leave either zero at an index).
func sameRank(a, b float64) bool { return a == b || a != a && b != b }

// totalLess is sort.Float64s's order: NaNs first, -0 and +0 equal.
func totalLess(a, b float64) bool { return a < b || a != a && b == b }

// rankPalette is what the property and fuzz inputs draw from: duplicates,
// both zeros, NaN and the infinities among a few ordinary values.
var rankPalette = []float64{math.NaN(), math.Copysign(0, -1), 0, 1, 1, 2, -1, 0.5, math.Inf(1), math.Inf(-1)}

// checkRanks compares Select at every rank — so every MinRows-th rank
// expandToMin can ask for, 1 and len(vals) included — and MedianCut with
// the sort-based oracle on vals.
func checkRanks(t *testing.T, vals []float64) {
	t.Helper()
	if len(vals) == 0 {
		return
	}
	sorted := slices.Clone(vals)
	sort.Float64s(sorted)
	for k := range vals {
		a := slices.Clone(vals)
		got := Select(a, k)
		if !sameRank(got, sorted[k]) {
			t.Fatalf("Select(%v, %d) = %v, sort says %v", vals, k, got, sorted[k])
		}
		for i, v := range a {
			if i < k && totalLess(got, v) || i > k && totalLess(v, got) {
				t.Fatalf("Select(%v, %d) left %v at %d: %v", vals, k, v, i, a)
			}
		}
	}
	rows := make([]int, len(vals))
	for i := range rows {
		rows[i] = i
	}
	wm, wc, wn, wok := sortMedianCut(vals)
	gm, gc, gn, gok := MedianCut(vals, rows, make([]float64, len(vals)))
	if gok != wok || gok && (!sameRank(gm, wm) || !sameRank(gc, wc) || gn != wn) {
		t.Fatalf("MedianCut(%v) = %v %v %d %v, sort-based %v %v %d %v", vals, gm, gc, gn, gok, wm, wc, wn, wok)
	}
	if gok && (gm == 0 && math.Signbit(gm) || gc == 0 && math.Signbit(gc)) {
		t.Fatalf("MedianCut(%v) returned a -0: median %v cut %v", vals, gm, gc)
	}
}

// TestRanksMatchSortOracle checks selection against sorting on random inputs
// from the palette, on all-equal columns, and on sorted, reversed and
// organ-pipe columns long enough to take many selection rounds.
func TestRanksMatchSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		vals := make([]float64, 1+r.Intn(40))
		for i := range vals {
			vals[i] = rankPalette[r.Intn(len(rankPalette))]
			if r.Intn(4) == 0 {
				vals[i] = float64(r.Intn(5))
			}
		}
		checkRanks(t, vals)
	}
	for _, v := range rankPalette {
		checkRanks(t, []float64{v, v, v, v, v})
	}
	const n = 3001
	shapes := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"few":        func(i int) float64 { return float64(i % 3) },
	}
	for name, f := range shapes {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		s := slices.Clone(vals)
		sort.Float64s(s)
		for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
			if got := Select(slices.Clone(vals), k); got != s[k] {
				t.Errorf("%s: Select(k=%d) = %v, want %v", name, k, got, s[k])
			}
		}
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		wm, wc, wn, _ := sortMedianCut(vals)
		if gm, gc, gn, _ := MedianCut(vals, rows, make([]float64, n)); gm != wm || gc != wc || gn != wn {
			t.Errorf("%s: MedianCut = %v %v %d, want %v %v %d", name, gm, gc, gn, wm, wc, wn)
		}
	}
}

// TestMedianCutZeroIsCanonical: with -0 and +0 both at the median, which zero
// a selection lands on depends on the input order; the median and the cut
// must not — both are +0 under every permutation.
func TestMedianCutZeroIsCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	base := []float64{negZero, 0, negZero, 0, negZero, 1, 2, -1, 0}
	rows := make([]int, len(base))
	for i := range rows {
		rows[i] = i
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		vals := slices.Clone(base)
		r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		m, cut, nLeft, ok := MedianCut(vals, rows, make([]float64, len(vals)))
		if !ok || m != 0 || math.Signbit(m) || cut != 0 || math.Signbit(cut) || nLeft != 7 {
			t.Fatalf("MedianCut(%v) = %v (signbit %v) %v (signbit %v) %d %v, want +0 +0 7 true",
				vals, m, math.Signbit(m), cut, math.Signbit(cut), nLeft, ok)
		}
	}
	// A zero reached by stepping down from a median equal to the maximum.
	vals := []float64{negZero, 1, 1, 1}
	if _, cut, nLeft, ok := MedianCut(vals, rows[:4], make([]float64, 4)); !ok || cut != 0 || math.Signbit(cut) || nLeft != 1 {
		t.Fatalf("MedianCut(%v) cut = %v (signbit %v), nLeft %d, ok %v; want +0, 1, true", vals, cut, math.Signbit(cut), nLeft, ok)
	}
}

// FuzzRanks decodes each byte as a palette value or a small integer and
// checks Select and MedianCut against the sort-based oracle.
func FuzzRanks(f *testing.F) {
	f.Add([]byte{3, 3, 3, 3})           // all equal
	f.Add([]byte{1, 2, 1, 2, 2, 1})     // -0 and +0 only
	f.Add([]byte{0, 0, 5, 6, 0})        // NaNs among values
	f.Add([]byte{5, 5, 5, 7, 9})        // median equals the maximum
	f.Add([]byte{0})                    // one NaN
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3})  // descending
	f.Add([]byte{40, 41, 40, 42, 4, 8}) // small integers
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, len(b))
		for i, c := range b {
			if int(c) < len(rankPalette) {
				vals[i] = rankPalette[c]
			} else {
				vals[i] = float64(c % 7)
			}
		}
		checkRanks(t, vals)
	})
}
