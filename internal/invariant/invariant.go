// Package invariant is the paper-contract oracle layer: a reusable set of
// machine-checked invariants that any sealed layout — whatever builder
// produced it — must satisfy together with its construction inputs. Every
// oracle corresponds to a guarantee the paper states or relies on:
//
//	geometry       §IV-B/Fig. 8/Fig. 10 — children of every split are
//	               interior-disjoint, their union covers the parent, the
//	               irregular partition is exactly the parent minus the
//	               grouped partitions, and every partition holds ≥ bmin rows.
//	grouped-split  Alg. 1 — each grouped partition contains every extended
//	               query of its group, and the irregular remainder intersects
//	               none of the node's extended queries (its cost is 0, §IV-D).
//	lemma1         Lemma 1 / §IV-A — the layout's cost on the worst-case
//	               workload Q*F upper-bounds its cost on seeded δ-similar
//	               sampled future workloads, per matched query pair and in
//	               aggregate.
//	monotonicity   Alg. 2–3 — no split in the tree increases the Q*F cost,
//	               and greedy builders (PAW, Qd-tree) only contain splits
//	               that strictly decrease it.
//	routing        §V-A/Fig. 4 — the sealed routing index and the precise
//	               descriptors never prune a partition or a record that the
//	               linear descriptor predicates accept.
//	tuner          §V-B/Eq. 5 — selected extra partitions respect the space
//	               budget, carry exact sizes, and each has positive gain.
//
// The oracles are pure checks: they never mutate the layout and they derive
// every expected value independently of the builders (their own query
// clipping, their own union-find grouping, their own row aggregation), so a
// builder bug cannot hide by breaking the checker the same way.
//
// Check(l, in) runs every applicable oracle against a layout plus its
// construction inputs: internal/sim drives it across all builders with the
// sample rows, and `pawcli check` drives it on a layout file with the scope
// the file carries (QH and δ) and no rows, so monotonicity skips itself. A
// layout holds no rows: the sample-row checks route Inputs.Rows over
// Inputs.Data through it.
package invariant

import (
	"errors"
	"fmt"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/workload"
)

// Oracle names, used to tag violations. The mutation smoke-test asserts each
// of these fires on at least one seeded corruption.
const (
	OracleGeometry     = "geometry"
	OracleGroupedSplit = "grouped-split"
	OracleLemma1       = "lemma1"
	OracleMonotonicity = "monotonicity"
	OracleRouting      = "routing"
	OracleTuner        = "tuner"
)

// errRowsWithoutData refuses Inputs that name sample rows but not the
// dataset to route them over.
var errRowsWithoutData = errors.New("invariant: Inputs.Rows is set without Inputs.Data to route them over")

// Violation is a failed invariant, tagged with the oracle that detected it.
type Violation struct {
	Oracle string
	Detail string
}

// Error implements error.
func (v *Violation) Error() string { return v.Oracle + ": " + v.Detail }

func violationf(oracle, format string, args ...any) error {
	return &Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

// Inputs are the construction-time facts the oracles verify a layout
// against. Data-dependent checks are skipped when Data is nil; Rows without
// Data is an error.
type Inputs struct {
	// Data is the dataset the layout was built over (nil: skip data checks).
	Data *dataset.Dataset
	// Rows are the construction sample rows, as rows of Data (nil: skip
	// sample-row checks, e.g. for a layout read from a file, whose sample
	// is not known). The checks route them through the layout, so Rows
	// without Data is an error.
	Rows []int
	// Domain is the construction domain (the box handed to the builder).
	Domain geom.Box
	// Hist is the historical workload QH the layout was built for.
	Hist workload.Workload
	// Delta is the declared workload-variance threshold δ.
	Delta float64
	// DriftDelta is the drift used to sample future workloads for the
	// Lemma 1 oracle. Zero defaults to Delta; setting it above Delta
	// simulates futures that violate the δ-similarity contract, which the
	// oracle is expected to flag.
	DriftDelta float64
	// MinRows is bmin in sample rows (0: skip the bmin check).
	MinRows int
	// Greedy marks builders that accept only strictly cost-decreasing
	// splits (PAW's Algorithm 3, the greedy Qd-tree). The k-d tree keeps it
	// false: its splits still must never increase cost, but need not
	// strictly decrease it.
	Greedy bool
	// Seed drives all sampled probes (points, queries, future workloads).
	Seed int64
	// Futures is the number of δ-similar future workloads sampled by the
	// Lemma 1 oracle (default 4).
	Futures int
	// Points is the number of sampled domain points for the geometric
	// disjointness/coverage probe (default 256).
	Points int
	// Queries is the number of sampled probe queries for the routing
	// differential (default 64).
	Queries int
}

func (in Inputs) withDefaults() Inputs {
	if in.Futures <= 0 {
		in.Futures = 4
	}
	if in.Points <= 0 {
		in.Points = 256
	}
	if in.Queries <= 0 {
		in.Queries = 64
	}
	if in.DriftDelta == 0 {
		in.DriftDelta = in.Delta
	}
	return in
}

// Check runs every applicable oracle and returns all violations joined (nil
// when the layout satisfies every contract).
func Check(l *layout.Layout, in Inputs) error {
	if in.Rows != nil && in.Data == nil {
		return errRowsWithoutData
	}
	in = in.withDefaults()
	return errors.Join(
		CheckGeometry(l, in),
		CheckGroupedSplit(l, in),
		CheckMonotonicity(l, in),
		CheckLemma1(l, in),
		CheckRouting(l, in),
	)
}
