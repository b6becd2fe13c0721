package colstore

import (
	"bytes"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/workload"
)

func TestFromDatasetShape(t *testing.T) {
	data := dataset.Uniform(1000, 3, 1)
	tab := FromDataset(data, nil, 128)
	if tab.NumRows() != 1000 || tab.Dims() != 3 {
		t.Fatalf("rows=%d dims=%d", tab.NumRows(), tab.Dims())
	}
	if got := tab.NumGroups(); got != 8 { // ceil(1000/128)
		t.Errorf("groups = %d, want 8", got)
	}
	if tab.Bytes() != 1000*3*dataset.BytesPerAttribute {
		t.Errorf("Bytes = %d", tab.Bytes())
	}
	// Default group size kicks in for invalid input.
	tab = FromDataset(data, nil, 0)
	if tab.NumGroups() != 1 {
		t.Errorf("default group size should hold all 1000 rows in one group, got %d", tab.NumGroups())
	}
}

func TestScanMatchesBruteForce(t *testing.T) {
	data := dataset.Uniform(5000, 2, 2)
	tab := FromDataset(data, nil, 256)
	w := workload.Uniform(data.Domain(), workload.Defaults(40, 3))
	sc := NewScanner()
	for _, q := range w.Boxes() {
		want := data.CountInBox(q, nil)
		cst, nst := sc.Count(tab, q), tab.CountNaive(q)
		if cst.Matched != want || nst.Matched != want {
			t.Fatalf("Count(%v) matched %d, naive %d, want %d", q, cst.Matched, nst.Matched, want)
		}
		// The naive scan decodes every surviving group whole, so Count's
		// BytesRead may only fall short of it.
		if cst.BytesRead > nst.BytesRead {
			t.Fatalf("Count read %d bytes > naive %d", cst.BytesRead, nst.BytesRead)
		}
	}
}

func TestRowGroupPruning(t *testing.T) {
	// Sorted data gives perfectly clustered row groups, so narrow queries
	// prune most groups.
	n := 10000
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i)
	}
	data := dataset.MustNew([]string{"x"}, [][]float64{col})
	tab := FromDataset(data, nil, 500) // 20 groups
	q := geom.Box{Lo: geom.Point{1000}, Hi: geom.Point{1499}}
	st := NewScanner().Count(tab, q)
	if st.Matched != 500 {
		t.Errorf("matched %d, want 500", st.Matched)
	}
	if st.GroupsRead > 2 {
		t.Errorf("read %d groups, want <= 2 (pruning broken)", st.GroupsRead)
	}
	if st.GroupsSkipped < 18 {
		t.Errorf("skipped only %d groups", st.GroupsSkipped)
	}
	// Byte accounting: every encoded byte is either decoded or proven
	// skippable, and pruning plus encoding must beat a full decode.
	if st.BytesRead+st.BytesSkipped != tab.EncodedBytes() {
		t.Errorf("BytesRead %d + BytesSkipped %d != EncodedBytes %d",
			st.BytesRead, st.BytesSkipped, tab.EncodedBytes())
	}
	nst := tab.CountNaive(q)
	if st.BytesRead > nst.BytesRead {
		t.Errorf("vectorized scan read %d bytes, naive read %d", st.BytesRead, nst.BytesRead)
	}
	if nst.Matched != st.Matched {
		t.Errorf("naive matched %d, vectorized %d", nst.Matched, st.Matched)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := dataset.TPCHLike(800, 4)
	tab := FromDataset(data, nil, 100)
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() || got.NumGroups() != tab.NumGroups() || got.Dims() != tab.Dims() {
		t.Fatalf("shape mismatch after round trip: %d/%d/%d", got.NumRows(), got.NumGroups(), got.Dims())
	}
	for i, n := range tab.names {
		if got.names[i] != n {
			t.Errorf("name %d = %q", i, got.names[i])
		}
	}
	// Scans must agree exactly.
	w := workload.Uniform(data.Domain(), workload.Defaults(20, 5))
	sc := NewScanner()
	for _, q := range w.Boxes() {
		s1, s2 := sc.Count(tab, q), sc.Count(got, q)
		if s1 != s2 {
			t.Fatalf("scan stats diverge after round trip: %+v vs %+v", s1, s2)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{0, 1, 2, 3, 4, 5, 6, 7})); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
	data := dataset.Uniform(100, 2, 6)
	tab := FromDataset(data, nil, 10)
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Error("truncated input must error")
	}
}

func TestFromDatasetSubset(t *testing.T) {
	data := dataset.Uniform(100, 2, 7)
	tab := FromDataset(data, []int{1, 3, 5, 7}, 2)
	if tab.NumRows() != 4 || tab.NumGroups() != 2 {
		t.Errorf("rows=%d groups=%d", tab.NumRows(), tab.NumGroups())
	}
	if st := NewScanner().Count(tab, data.Domain()); st.Matched != 4 {
		t.Errorf("matched %d", st.Matched)
	}
}
