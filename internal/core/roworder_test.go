package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// TestNonAscendingSampleGolden builds each of the three builders on a sample
// whose rows do not ascend, shaped like a drift region rebuild: a k-d
// layout's rows concatenated partition by partition in leaf order, then a
// stride sample of them. It pins each layout's digest and a hash of the
// sample rows routing sends every partition, in the sample's order, to
// literals recorded on the builders that read the dataset at the sample rows
// directly and kept those rows on each partition: a builder that works on a
// gathered copy must cut the same tree. The PAW digest was re-recorded when core.Build began to record δ and
// QH on the layout; with both cleared it is the literal before. All three
// were re-recorded when PAWL went to version 3: with the names block
// stripped and the version word set back to 2 each is the literal before;
// and again at version 4, which appends the recipe: with it stripped and the
// version word set back to 3 each is the literal before.
func TestNonAscendingSampleGolden(t *testing.T) {
	want := [3]struct{ digest, rows string }{ // paw, qd-tree, kd-tree
		{"dbf745b103b63465", "401499a4cc06a48d"},
		{"c29dad5855e639b0", "bfd953e48c5f6ee5"},
		{"c12a5b68bf792eff", "d771b515e251ed7c"},
	}
	data := dataset.TPCHLike(40_000, 31).Project(4).Normalize()
	domain := data.Domain()
	base := kdtree.Build(data, allRows(data.NumRows()), domain, kdtree.Params{MinRows: 2_000})
	byPart := base.RouteIndices(data)
	var region []int
	for _, p := range base.Parts {
		region = append(region, byPart[p.ID]...)
	}
	sample := make([]int, 0, len(region)/5)
	for i := 0; i < len(region); i += 5 {
		sample = append(sample, region[i])
	}
	if slices.IsSorted(sample) {
		t.Fatal("the region sample ascends; the test needs one that does not")
	}
	hist := workload.Skewed(domain, workload.GenParams{
		NumQueries: 80, MaxRangeFrac: 0.3, Centers: 6, SigmaFrac: 0.1, Seed: 32,
	})
	minRows := len(sample) / 100
	sampled, _ := data.Gather(sample, 1)
	for i, l := range []*layout.Layout{
		Build(data, sample, domain, hist, Params{MinRows: minRows, Delta: 0.01, DataAwareRefine: true}),
		qdtree.Build(data, sample, domain, hist.Boxes(), qdtree.Params{MinRows: minRows}),
		kdtree.Build(data, sample, domain, kdtree.Params{MinRows: minRows}),
	} {
		digest, err := l.Digest()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, rows := range l.RouteIndices(sampled) {
			binary.Write(h, binary.LittleEndian, int64(len(rows)))
			for _, r := range rows {
				binary.Write(h, binary.LittleEndian, int64(sample[r]))
			}
		}
		got := struct{ digest, rows string }{digest[:16], hex.EncodeToString(h.Sum(nil))[:16]}
		if got != want[i] {
			t.Errorf("%s: got %+v, want %+v", l.Method, got, want[i])
		}
	}
}
