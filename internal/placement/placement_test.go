package placement

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
)

func setup(t *testing.T) *layout.Layout {
	t.Helper()
	data := dataset.Uniform(8000, 2, 1)
	rows := make([]int, data.NumRows())
	for i := range rows {
		rows[i] = i
	}
	l := kdtree.Build(data, rows, data.Domain(), kdtree.Params{MinRows: 120})
	l.Route(data)
	return l
}

func TestRoundRobinCoversAllPartitions(t *testing.T) {
	l := setup(t)
	a := RoundRobin(l, 4)
	if len(a) != l.NumPartitions() {
		t.Fatalf("assignment covers %d of %d partitions", len(a), l.NumPartitions())
	}
	counts := make([]int, 4)
	for _, w := range a {
		if w < 0 || w >= 4 {
			t.Fatalf("worker %d out of range", w)
		}
		counts[w]++
	}
	for w, c := range counts {
		if c == 0 {
			t.Errorf("worker %d received no partitions", w)
		}
	}
}

func TestAssignmentReplicated(t *testing.T) {
	l := setup(t)
	a := RoundRobin(l, 3)
	rep := a.Replicated()
	if err := rep.Validate(l, 3); err != nil {
		t.Fatal(err)
	}
	for id, w := range a {
		if len(rep[id]) != 1 || rep[id][0] != w {
			t.Fatalf("partition %d: lifted set %v, want [%d]", id, rep[id], w)
		}
	}
}

func TestValidateRejectsBadSets(t *testing.T) {
	l := setup(t)
	rep := RoundRobin(l, 2).Replicated()
	cases := map[string]func(Replicated){
		"missing":   func(r Replicated) { delete(r, l.Parts[0].ID) },
		"empty":     func(r Replicated) { r[l.Parts[0].ID] = nil },
		"negative":  func(r Replicated) { r[l.Parts[0].ID] = []int{-1} },
		"overflow":  func(r Replicated) { r[l.Parts[0].ID] = []int{2} },
		"duplicate": func(r Replicated) { r[l.Parts[0].ID] = []int{0, 0} },
	}
	for name, corrupt := range cases {
		bad := make(Replicated, len(rep))
		for id, ws := range rep {
			bad[id] = append([]int(nil), ws...)
		}
		corrupt(bad)
		if err := bad.Validate(l, 2); err == nil {
			t.Errorf("%s: corruption passed Validate", name)
		}
	}
}
