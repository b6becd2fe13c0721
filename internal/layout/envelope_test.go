package layout

import (
	"math/rand"
	"testing"

	"paw/internal/geom"
)

// envelopeGrid is the routing benchmark's layout — a two-level side×side grid
// over the unit square, 5 184 partitions at side 72 — with one precise box per
// partition, as blockstore.Materialize leaves a layout: the cell shrunk about
// its centre, so a range can meet a cell and miss what it holds.
func envelopeGrid(side int) *Layout {
	root := &Node{Desc: NewRect(geom.UnitBox(2))}
	w := 1.0 / float64(side)
	for i := 0; i < side; i++ {
		strip := geom.Box{Lo: geom.Point{float64(i) * w, 0}, Hi: geom.Point{float64(i+1) * w, 1}}
		sn := &Node{Desc: NewRect(strip)}
		for j := 0; j < side; j++ {
			cell := geom.Box{Lo: geom.Point{float64(i) * w, float64(j) * w}, Hi: geom.Point{float64(i+1) * w, float64(j+1) * w}}
			d := NewRect(cell)
			sn.Children = append(sn.Children, &Node{Desc: d, Part: &Partition{Desc: d, Precise: []geom.Box{cell.Scale(0.8)}}})
		}
		root.Children = append(root.Children, sn)
	}
	return Seal("envelope-grid", root, 64)
}

// envelopeQueries draws n ranges up to a tenth of the unit square wide.
func envelopeQueries(n int) []geom.Box {
	r := rand.New(rand.NewSource(6))
	out := make([]geom.Box, n)
	for i := range out {
		lo := geom.Point{r.Float64(), r.Float64()}
		out[i] = geom.Box{Lo: lo, Hi: geom.Point{lo[0] + 0.1*r.Float64(), lo[1] + 0.1*r.Float64()}}
	}
	return out
}

// TestAppendPartitionsForEnvelopesAllocs: with an envelope on every partition
// the route path makes one more comparison per candidate and still allocates
// nothing — and the envelopes do drop candidates, or this measures the path
// without them.
func TestAppendPartitionsForEnvelopesAllocs(t *testing.T) {
	l := envelopeGrid(72)
	queries := envelopeQueries(64)
	dst := make([]ID, 0, len(l.Parts))
	with := 0
	for _, q := range queries { // also warms the candidate pool
		dst = l.AppendPartitionsFor(dst[:0], q)
		with += len(dst)
	}
	// One query per measurement, as TestAppendPartitionsForAllocFree does:
	// under the race detector sync.Pool drops a quarter of its Puts, which
	// reads as 0.25 here; an allocation on the path reads as 1 or more.
	for _, q := range queries[:8] {
		avg := testing.AllocsPerRun(100, func() {
			dst = l.AppendPartitionsFor(dst[:0], q)
		})
		if avg > 0.5 {
			t.Errorf("AppendPartitionsFor(%v) allocates %.2f objects with envelopes installed, want 0", q, avg)
		}
	}
	for _, p := range l.Parts {
		p.Precise = nil
	}
	without := 0
	for _, q := range queries {
		without += len(l.AppendPartitionsFor(dst[:0], q))
	}
	if with >= without {
		t.Errorf("%d partitions with envelopes, %d without: no candidate was dropped", with, without)
	}
}

// BenchmarkAppendPartitionsForEnvelopes is range routing on the 5 184-partition
// grid with one precise box per partition: ns/query. `make bench-smoke` runs
// it once.
func BenchmarkAppendPartitionsForEnvelopes(b *testing.B) {
	l := envelopeGrid(72)
	queries := envelopeQueries(2000)
	dst := make([]ID, 0, len(l.Parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			dst = l.AppendPartitionsFor(dst[:0], q)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(queries)), "ns/query")
}

// TestCandidateTestOnDegenerateBoxes: the indexed route path no longer asks
// per candidate whether the query or the stored box is empty, and must still
// answer as the linear reference does when one of them is — an inverted
// precise box meets nothing (its partition is pruned), an empty query routes
// nowhere.
func TestCandidateTestOnDegenerateBoxes(t *testing.T) {
	l := envelopeGrid(6)
	inverted := geom.Box{Lo: geom.Point{0.9, 0.1}, Hi: geom.Point{0.1, 0.9}}
	for i, p := range l.Parts {
		switch i % 3 {
		case 1:
			p.Precise = []geom.Box{inverted}
		case 2:
			p.Precise = append([]geom.Box{inverted}, p.Precise...)
		}
	}
	queries := append(envelopeQueries(200),
		geom.UnitBox(2),
		inverted, // empty, and wide enough to "overlap" everything if tested naively
		geom.Box{Lo: geom.Point{0.2, 0.5}, Hi: geom.Point{0.8, 0.4}})
	routed := 0
	for _, q := range queries {
		got, want := l.AppendPartitionsFor(nil, q), l.AppendPartitionsForLinear(nil, q)
		if !equalIDs(got, want) {
			t.Fatalf("AppendPartitionsFor(%v): indexed %v, linear %v", q, got, want)
		}
		if ci, cl := l.QueryCost(q, nil), l.QueryCostLinear(q, nil); ci != cl {
			t.Fatalf("QueryCost(%v): indexed %d, linear %d", q, ci, cl)
		}
		if q.IsEmpty() && len(got) != 0 {
			t.Fatalf("empty query %v routed to %v", q, got)
		}
		routed += len(got)
	}
	if all := l.AppendPartitionsFor(nil, geom.UnitBox(2)); len(all) != 24 {
		t.Fatalf("the unit box must reach the 24 partitions with a real precise box, got %d", len(all))
	}
	if routed == 0 {
		t.Fatal("no query routed anywhere")
	}
}
