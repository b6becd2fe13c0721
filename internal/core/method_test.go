package core

import (
	"slices"
	"strings"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// TestBuildMethodMatchesBuilders: BuildMethod is a switch that records the
// scope and nothing else — each method's layout carries hist and δ, and with
// that scope given to its builder's direct call on the same inputs (the
// Qd-tree on the history's own boxes, the baselines at the same bmin and
// parallelism) the two digest equally; an unknown name is an error that names
// it.
func TestBuildMethodMatchesBuilders(t *testing.T) {
	data := dataset.TPCHLike(6000, 3)
	dom := data.Domain()
	rows := data.Sample(1500, 4)
	hist := workload.Uniform(dom, workload.Defaults(20, 5))
	p := Params{MinRows: 20, Delta: 0.02 * (dom.Hi[0] - dom.Lo[0]), DataAwareRefine: true, Parallelism: 2}
	cases := []struct {
		m      Method
		direct *layout.Layout
	}{
		{MethodPAW, Build(data, rows, dom, hist, p)},
		{MethodQdTree, qdtree.Build(data, rows, dom, hist.Boxes(), qdtree.Params{MinRows: p.MinRows, Parallelism: p.Parallelism})},
		{MethodKdTree, kdtree.Build(data, rows, dom, kdtree.Params{MinRows: p.MinRows, Parallelism: p.Parallelism})},
	}
	for _, c := range cases {
		l, err := BuildMethod(c.m, data, rows, dom, hist, p)
		if err != nil {
			t.Fatalf("%s: %v", c.m, err)
		}
		if l.Delta != p.Delta || !slices.EqualFunc(l.Hist, hist.Boxes(), geom.Box.Equal) {
			t.Errorf("%s: the layout records δ %g and %d QH queries, want %g and %d", c.m, l.Delta, len(l.Hist), p.Delta, len(hist))
		}
		got, err := l.Digest()
		if err != nil {
			t.Fatal(err)
		}
		c.direct.Delta, c.direct.Hist = p.Delta, hist.Boxes()
		want, err := c.direct.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || l.Method != c.direct.Method {
			t.Errorf("%s: BuildMethod built %s layout %s, the builder %s layout %s", c.m, l.Method, got, c.direct.Method, want)
		}
	}
	for _, m := range []Method{"", "PAW", "r-tree"} {
		if _, err := BuildMethod(m, data, rows, dom, hist, p); err == nil || !strings.Contains(err.Error(), `"`+string(m)+`"`) {
			t.Errorf("method %q: got %v, want an error naming it", m, err)
		}
	}
}
