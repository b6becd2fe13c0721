package colstore

import (
	"testing"

	"paw/internal/dataset"
)

// TestScanStatsEncodingMix: a table with one column per physical encoding —
// long runs (RLE), few distinct fractions (dictionary), high-cardinality
// integers (FOR), incompressible fractions (raw), each holding its column's
// least value in every group — counted with a predicate that keeps every
// group and every column active must tally exactly one decoded chunk per
// encoding per group. These tallies feed the enc_* span
// attributes of the distributed scan traces.
func TestScanStatsEncodingMix(t *testing.T) {
	const n, groupRows = 8000, 1000
	cols := [][]float64{
		make([]float64, n), // runs of 100 over 10 values: RLE in every group
		make([]float64, n), // 7 distinct fractions: dictionary
		make([]float64, n), // 1000 distinct integers: frame-of-reference
		make([]float64, n), // 1000 distinct fractions per group: raw
	}
	for i := 0; i < n; i++ {
		cols[0][i] = float64(i / 100 % 10)
		cols[1][i] = float64(i%7) / 7
		cols[2][i] = float64(i % 1000 * 5)
		cols[3][i] = float64((i%1000*2654435761)%100003) / 100003
	}
	data := dataset.MustNew([]string{"a", "b", "c", "d"}, cols)
	tab := FromDataset(data, nil, groupRows)

	counts := tab.EncodingCounts()
	groups := n / groupRows
	for _, enc := range []string{"rle", "dict", "for", "raw"} {
		if counts[enc] != groups {
			t.Fatalf("table must hold one %s chunk per group: %v", enc, counts)
		}
	}

	// Trim every dimension slightly above its least value, which every group
	// holds: no group is pruned or covered on any column, and none empties, so
	// every column is an active predicate — each tallied exactly once per group.
	q := data.Domain()
	for d := range q.Lo {
		q.Lo[d] += 1e-4
	}
	sc := NewScanner()
	st := sc.Count(tab, q)
	if st.GroupsRead != groups || st.GroupsSkipped != 0 {
		t.Fatalf("scan pruned groups the query covers: %+v", st)
	}
	if st.ColsRLE != groups || st.ColsDict != groups || st.ColsFOR != groups || st.ColsRaw != groups {
		t.Fatalf("encoding mix miscounted: rle=%d dict=%d for=%d raw=%d, want %d each",
			st.ColsRLE, st.ColsDict, st.ColsFOR, st.ColsRaw, groups)
	}

	// A count-only pass over a query that zone-prunes nothing but matches no
	// rows on the most selective dimension stops after that one column: the
	// tallies must reflect chunks actually decoded, not columns in the table.
	empty := data.Domain()
	empty.Lo[1], empty.Hi[1] = 0.30, 0.40 // between 2/7 and 3/7: no dictionary value
	st2 := sc.Count(tab, empty)
	if st2.Matched != 0 {
		t.Fatalf("probe between dictionary values matched %d rows", st2.Matched)
	}
	if got := st2.ColsRaw + st2.ColsDict + st2.ColsRLE + st2.ColsFOR; got >= st2.GroupsRead*len(cols) {
		t.Fatalf("empty-match scan decoded every column (%d chunks over %d groups) — selection must short-circuit",
			got, st2.GroupsRead)
	}

	// Accumulation across partitions (the worker batch path) is additive.
	var agg ScanStats
	agg.Add(st)
	agg.Add(st)
	if agg.ColsRLE != 2*st.ColsRLE || agg.ColsRaw != 2*st.ColsRaw {
		t.Fatalf("ScanStats.Add must accumulate encoding tallies: %+v", agg)
	}
}
