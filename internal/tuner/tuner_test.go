package tuner

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/workload"
)

// totalBytes returns the storage the extras occupy.
func totalBytes(extras layout.Extras) int64 {
	var t int64
	for _, e := range extras {
		t += e.Bytes()
	}
	return t
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func setup(t *testing.T) (*layout.Layout, *dataset.Dataset, workload.Workload) {
	t.Helper()
	data := dataset.Uniform(4000, 2, 1)
	l := kdtree.Build(data, allRows(4000), data.Domain(), kdtree.Params{MinRows: 150})
	l.Route(data)
	w := workload.Uniform(data.Domain(), workload.Defaults(40, 2))
	return l, data, w
}

func TestSelectRespectsBudget(t *testing.T) {
	l, data, w := setup(t)
	for _, frac := range []float64{0.01, 0.05, 0.1, 0.2} {
		budget := int64(float64(data.TotalBytes()) * frac)
		extras := Select(l, data, w.Boxes(), budget)
		if got := totalBytes(extras); got > budget {
			t.Errorf("budget %d exceeded: %d", budget, got)
		}
	}
}

func TestSelectReducesCost(t *testing.T) {
	l, data, w := setup(t)
	before := l.WorkloadCost(w.Boxes(), nil)
	extras := Select(l, data, w.Boxes(), data.TotalBytes()/5) // 20% spare space
	after := l.WorkloadCost(w.Boxes(), extras)
	if after >= before {
		t.Errorf("storage tuner did not reduce cost: %d -> %d (%d extras)", before, after, len(extras))
	}
	t.Logf("cost %d -> %d with %d extras (%.1f%% space)",
		before, after, len(extras), 100*float64(totalBytes(extras))/float64(data.TotalBytes()))
}

func TestSelectZeroBudget(t *testing.T) {
	l, data, w := setup(t)
	if extras := Select(l, data, w.Boxes(), 0); extras != nil {
		t.Error("zero budget must select nothing")
	}
	if extras := Select(l, data, nil, 1<<40); extras != nil {
		t.Error("no queries, no extras")
	}
}

func TestSelectPrefersHighGain(t *testing.T) {
	l, data, w := setup(t)
	// With budget for roughly one candidate, the pick must strictly reduce
	// the cost of at least its own query.
	extras := Select(l, data, w.Boxes(), data.TotalBytes()/100)
	if len(extras) == 0 {
		t.Skip("budget too small for any candidate on this data")
	}
	for _, e := range extras {
		direct := l.QueryCost(e.Box, nil)
		if e.Bytes() >= direct {
			t.Errorf("selected extra of %d bytes does not beat direct cost %d", e.Bytes(), direct)
		}
	}
}

// TestMonotoneBudget reproduces the Fig. 23b behaviour: more spare space
// never increases the workload cost.
func TestMonotoneBudget(t *testing.T) {
	l, data, w := setup(t)
	prev := l.WorkloadCost(w.Boxes(), nil)
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.1, 0.2} {
		extras := Select(l, data, w.Boxes(), int64(float64(data.TotalBytes())*frac))
		c := l.WorkloadCost(w.Boxes(), extras)
		if c > prev {
			t.Errorf("cost increased with budget %.0f%%: %d -> %d", frac*100, prev, c)
		}
		prev = c
	}
}

// TestExtrasNeverBelowLB: answering from a copy still reads at least the
// result size.
func TestExtrasNeverBelowLB(t *testing.T) {
	l, data, w := setup(t)
	extras := Select(l, data, w.Boxes(), data.TotalBytes()/5)
	for _, q := range w.Boxes() {
		cost := l.QueryCost(q, extras)
		lb := layout.LowerBoundBytes(data, q)
		if cost < lb {
			t.Fatalf("query cost %d below lower bound %d", cost, lb)
		}
	}
}
