package placement

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/workload"
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

// TestLeafRuns: the rule's contract on the test layout — valid replica sets,
// one contiguous ID range of primaries per worker, no empty worker, every
// worker within one partition of its share of rows, copies clamped to the
// fleet — and fewer workers per δ-similar query than dealing IDs i mod n.
func TestLeafRuns(t *testing.T) {
	l := setup(t)
	var total, largest int64
	for _, p := range l.Parts {
		total += p.FullRows
		largest = max(largest, p.FullRows)
	}
	for _, workers := range []int{1, 3, 4} {
		for _, copies := range []int{1, 2} {
			rep := LeafRuns(l, workers, copies)
			if err := rep.Validate(l, workers); err != nil {
				t.Fatalf("%d workers, %d copies: %v", workers, copies, err)
			}
			rows := make([]int64, workers)
			last := -1 // the primary of the previous partition in ID order
			done := make(map[int]bool)
			for _, p := range l.Parts {
				ws := rep[p.ID]
				if want := min(copies, workers); len(ws) != want {
					t.Fatalf("%d workers, %d copies: partition %d has %d copies, want %d", workers, copies, p.ID, len(ws), want)
				}
				if w := ws[0]; w != last {
					if done[w] {
						t.Fatalf("%d workers: worker %d's primaries are not one ID range", workers, w)
					}
					done[last], last = true, w
				}
				rows[ws[0]] += p.FullRows
			}
			for w, r := range rows {
				if r == 0 && len(l.Parts) >= workers {
					t.Errorf("%d workers: worker %d holds no rows", workers, w)
				}
				if r > total/int64(workers)+largest {
					t.Errorf("%d workers: worker %d holds %d rows, over %d/%d + %d", workers, w, r, total, workers, largest)
				}
			}
		}
	}

	dom := l.Root.Desc.MBR()
	width := dom.Hi[0] - dom.Lo[0]
	hist := workload.Uniform(dom, workload.Defaults(100, 3))
	queries := workload.Future(hist, 0.01*width, 2, 5).Boxes()
	for _, workers := range []int{3, 4} {
		byIndex := make(Replicated, len(l.Parts))
		for i, p := range l.Parts {
			byIndex[p.ID] = []int{i % workers}
		}
		leaf, dealt := LeafRuns(l, workers, 1).WorkersPerQuery(l, queries), byIndex.WorkersPerQuery(l, queries)
		if leaf > dealt {
			t.Errorf("%d workers: %.3f workers per query in leaf runs, %.3f dealt by index", workers, leaf, dealt)
		}
		t.Logf("%d workers: %.3f workers per query in leaf runs, %.3f dealt by index", workers, leaf, dealt)
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
	rep := LeafRuns(l, 2, 1)
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
