package colstore

import (
	"math/rand"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/sma"
)

func TestGroupAccessors(t *testing.T) {
	data := dataset.Uniform(1000, 3, 20)
	tab := FromDataset(data, nil, 250) // 4 groups
	if tab.NumGroups() != 4 {
		t.Fatalf("groups = %d", tab.NumGroups())
	}
	var totalRows int
	for g := 0; g < tab.NumGroups(); g++ {
		rows := tab.GroupRows(g)
		totalRows += rows
		st := tab.groupStats(g)
		if st.Count != int64(rows) {
			t.Errorf("group %d stats count %d vs rows %d", g, st.Count, rows)
		}
		pts := tab.groupPoints(g)
		if len(pts) != rows {
			t.Fatalf("group %d materialised %d of %d points", g, len(pts), rows)
		}
		// Every materialised point lies inside the group's SMA envelope.
		env := geom.NewBox(st.Min, st.Max)
		for _, p := range pts {
			if !env.Contains(p) {
				t.Fatalf("group %d point %v escapes envelope %v", g, p, env)
			}
		}
	}
	if totalRows != 1000 {
		t.Errorf("groups cover %d rows", totalRows)
	}
}

func TestGroupPointsMatchSource(t *testing.T) {
	data := dataset.Uniform(100, 2, 21)
	tab := FromDataset(data, nil, 30)
	// Concatenated group points reproduce the source rows in order.
	i := 0
	for g := 0; g < tab.NumGroups(); g++ {
		for _, p := range tab.groupPoints(g) {
			if p[0] != data.At(i, 0) || p[1] != data.At(i, 1) {
				t.Fatalf("row %d mismatch: %v vs (%v,%v)", i, p, data.At(i, 0), data.At(i, 1))
			}
			i++
		}
	}
	if i != 100 {
		t.Errorf("iterated %d rows", i)
	}
}

// failWriter errors after n bytes, driving Encode's error paths.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errFail
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errFail
	}
	return n, nil
}

type failErr struct{}

func (failErr) Error() string { return "simulated write failure" }

var errFail = failErr{}

func TestEncodeWriteFailures(t *testing.T) {
	data := dataset.Uniform(200, 2, 22)
	tab := FromDataset(data, nil, 50)
	// Failing at a spread of offsets exercises every Encode stage. bufio
	// may defer the error to Flush, but Encode must always surface it.
	for _, cut := range []int{0, 3, 6, 10, 20, 100, 1000, 3000} {
		if err := tab.Encode(&failWriter{left: cut}); err == nil {
			t.Errorf("Encode with %d-byte budget must fail", cut)
		}
	}
}

// TestEnvelopeIsUnionOfGroupStats: the data envelope is exactly the fold of the
// row groups' statistics and holds every row — on an empty table (none), one
// group, full groups and a ragged last group, built in source order and by the
// Builder.
func TestEnvelopeIsUnionOfGroupStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 640, 1000} {
		data := dataset.TPCHLike(max(n, 1), int64(n)+1).Project(1 + rng.Intn(5))
		rows := rng.Perm(data.NumRows())[:n]
		for name, tab := range map[string]*Table{
			"FromDataset": FromDataset(data, rows, 64),
			"Builder":     NewBuilder(data, 64).Build(append([]int{}, rows...)),
		} {
			env, ok := tab.Envelope()
			if ok != (n > 0) {
				t.Fatalf("%s, %d rows: envelope present = %v", name, n, ok)
			}
			if !ok {
				continue
			}
			want := tab.groupStats(0)
			for g := 1; g < tab.NumGroups(); g++ {
				want = sma.Merge(want, tab.groupStats(g))
			}
			if !env.Equal(geom.NewBox(want.Min, want.Max)) {
				t.Errorf("%s, %d rows: envelope %v, groups fold to %v", name, n, env, geom.NewBox(want.Min, want.Max))
			}
			for g := 0; g < tab.NumGroups(); g++ {
				for _, p := range tab.groupPoints(g) {
					if !env.Contains(p) {
						t.Fatalf("%s, %d rows: envelope %v disowns %v", name, n, env, p)
					}
				}
			}
			// The caller owns the box: changing it does not reach the statistics.
			env.Lo[0], env.Hi[0] = 1, 0
			if again, _ := tab.Envelope(); !again.Equal(geom.NewBox(want.Min, want.Max)) {
				t.Errorf("%s, %d rows: envelope aliases the group statistics", name, n)
			}
		}
	}
}
