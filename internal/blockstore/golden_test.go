package blockstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/workload"
)

// TestBenchmarkStoresGolden materialises the PAW layout of each end-to-end
// benchmark shape (core's benchShapes: the same generators, seeds, 10 %
// sample, δ of 1 % and bmin = sample/600) at a tenth of the benchmark's rows,
// in 32-row groups (the tiling recurses several levels and large partitions
// fan out) and in 512-row ones (wider tiles, more of a tile's word bits for
// slots), and pins the SHA-256 of every partition's PAWC payload — as one
// digest of the per-partition digests, in partition order — to literals
// recorded before the builder's selection, tile sort and run-key census were
// rewritten. The OSM digests were re-recorded when the builder began to tile
// a partition of two or more tail columns for the layout's workload, and all
// six when it began to break ties on the rows' other values, not on source
// rows, and to sample a workload cut's keys by value, at least 256 of them.
// Layout digests
// (core.TestBenchmarkLayoutsGolden) do not see a partition's row order; these
// do.
func TestBenchmarkStoresGolden(t *testing.T) {
	const rows = 200_000
	for _, c := range []struct {
		name        string
		tpch        bool
		histQueries int
		gamma       float64
		parts       int
		digests     [2]string // at 32 and 512 rows a group
	}{
		{"tpch-selective", true, 200, 0.3, 59, [2]string{"24575893f16d4277", "0893a1188c6b8dd6"}},
		{"tpch-wide-scan", true, 100, 0.9, 317, [2]string{"3d11b7557830ed33", "44c64a60169d6a5c"}},
		{"osm-hot-repeat", false, 64, 0.1, 22, [2]string{"7391698e185ae66b", "9e2eb8efca562f86"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			const identitySeed = 20220501
			subSeed := func(seed, k int64) int64 { return seed*7919 + k }
			var data *dataset.Dataset
			if c.tpch {
				data = dataset.TPCHLike(rows, subSeed(identitySeed, 0)).Project(4).Normalize()
			} else {
				data = dataset.OSMLike(rows, 12, subSeed(identitySeed, 0)).Normalize()
			}
			dom, sample := data.Domain(), data.Sample(rows/10, subSeed(identitySeed, 1))
			hist := workload.Skewed(dom, workload.GenParams{
				NumQueries: c.histQueries, MaxRangeFrac: c.gamma, Centers: 10, SigmaFrac: 0.10,
				Seed: subSeed(identitySeed, 2),
			})
			l := core.Build(data, sample, dom, hist, core.Params{MinRows: len(sample) / 600, Delta: 0.01 * (dom.Hi[0] - dom.Lo[0])})
			if len(l.Parts) != c.parts {
				t.Fatalf("%d partitions, want %d", len(l.Parts), c.parts)
			}
			for i, groupRows := range []int{32, 512} {
				s := Materialize(l, data, Config{GroupRows: groupRows})
				all := sha256.New()
				var buf bytes.Buffer
				for _, p := range l.Parts {
					buf.Reset()
					if err := s.parts[p.ID].Table.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf.Bytes())
					all.Write(sum[:])
				}
				if got := hex.EncodeToString(all.Sum(nil))[:16]; got != c.digests[i] {
					t.Errorf("%d-row groups: payload digest %s, want %s", groupRows, got, c.digests[i])
				}
			}
		})
	}
}
