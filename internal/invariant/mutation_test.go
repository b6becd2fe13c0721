package invariant_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/invariant"
	"paw/internal/layout"
	"paw/internal/sim"
)

// The mutation smoke-test is the oracle suite's own verification: every
// oracle must detect at least one seeded corruption of a real layout. Each
// case builds a clean PAW layout from the deterministic scenario set,
// asserts the targeted oracle passes, applies a known corruption and
// asserts the oracle fires with its own tag. A mutation that goes
// undetected means the oracle silently lost its teeth.

// violatedOracles returns the set of oracle names tagged in err (which may
// wrap multiple violations via errors.Join).
func violatedOracles(err error) map[string]bool {
	out := make(map[string]bool)
	collect(err, out)
	return out
}

func collect(err error, out map[string]bool) {
	if err == nil {
		return
	}
	var v *invariant.Violation
	if errors.As(err, &v) {
		out[v.Oracle] = true
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			collect(e, out)
		}
	}
}

func expectOracle(t *testing.T, err error, oracle string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption went undetected: want a %q violation", oracle)
	}
	if !violatedOracles(err)[oracle] {
		t.Fatalf("want a %q violation, got: %v", oracle, err)
	}
}

func expectClean(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("oracle fired on an uncorrupted layout: %v", err)
	}
}

// findLayout builds PAW layouts across the scenario set until pred accepts
// one.
func findLayout(t *testing.T, pred func(*layout.Layout) bool) (sim.Scenario, *layout.Layout) {
	t.Helper()
	for _, sc := range sim.Scenarios(24, 42) {
		l := sim.Build(sc, sim.MethodPAW, 2)
		if pred(l) {
			return sc, l
		}
	}
	t.Fatal("no scenario produced the required layout shape")
	return sim.Scenario{}, nil
}

func anyLayout(l *layout.Layout) bool { return l.NumPartitions() >= 2 }

// outsideBox returns a box strictly below the layout's domain on every
// dimension — guaranteed to contain no record.
func outsideBox(root geom.Box) geom.Box {
	lo := make(geom.Point, root.Dims())
	hi := make(geom.Point, root.Dims())
	for d := range lo {
		lo[d] = root.Lo[d] - 10
		hi[d] = root.Lo[d] - 5
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func TestMutationGeometryOverlap(t *testing.T) {
	sc, l := findLayout(t, anyLayout)
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckGeometry(l, in))

	// Enlarge a non-root rectangular leaf past its parent: the child-in-
	// parent and volume-conservation contracts both break.
	var leaf *layout.Node
	l.Root.Walk(func(n *layout.Node) {
		if leaf == nil && n != l.Root && n.IsLeaf() && n.Desc.Kind() == layout.KindRect {
			leaf = n
		}
	})
	if leaf == nil {
		t.Fatal("layout has no rectangular leaf")
	}
	b := leaf.Desc.MBR().Clone()
	b.Hi[0] += b.Hi[0] - b.Lo[0] + 1
	leaf.Desc = layout.NewRect(b)
	leaf.Part.Desc = leaf.Desc
	expectOracle(t, invariant.CheckGeometry(l, in), invariant.OracleGeometry)
}

func TestMutationGeometryLostRows(t *testing.T) {
	sc, l := findLayout(t, anyLayout)
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckGeometry(l, in))

	// Add a construction row beyond the root on every dimension: no leaf
	// routes it, so the leaves no longer partition the construction sample.
	// The other geometry checks read the layout, or data rows the row is
	// not among, so only sample-row conservation can see it.
	root := l.Root.Desc.MBR()
	n := in.Data.NumRows()
	cols := make([][]float64, in.Data.Dims())
	for d := range cols {
		cols[d] = append(in.Data.Column(d)[:n:n], root.Hi[d]+1)
	}
	in.Data = dataset.MustNew(in.Data.Names(), cols)
	in.Rows = append(in.Rows[:len(in.Rows):len(in.Rows)], n)
	in.Points = 1 // the point probe then reads data row 0 alone, not row n
	err := invariant.CheckGeometry(l, in)
	expectOracle(t, err, invariant.OracleGeometry)
	if !strings.Contains(err.Error(), "construction rows") {
		t.Fatalf("want the unrouted row reported, got: %v", err)
	}
}

func TestCheckRefusesRowsWithoutData(t *testing.T) {
	sc, l := findLayout(t, anyLayout)
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.Check(l, in))

	// Sample rows are checked by routing them over the dataset: without it
	// there is nothing to route, which must be an error, not a skip.
	in.Data = nil
	if err := invariant.Check(l, in); err == nil || !strings.Contains(err.Error(), "without Inputs.Data") {
		t.Fatalf("Check with Rows and no Data: got %v, want the missing dataset named", err)
	}
}

// splitPair returns a node split into exactly two rectangular leaves.
func splitPair(l *layout.Layout) *layout.Node {
	var pair *layout.Node
	l.Root.Walk(func(n *layout.Node) {
		if pair == nil && len(n.Children) == 2 && n.Desc.Kind() == layout.KindRect &&
			n.Children[0].IsLeaf() && n.Children[0].Desc.Kind() == layout.KindRect &&
			n.Children[1].IsLeaf() && n.Children[1].Desc.Kind() == layout.KindRect {
			pair = n
		}
	})
	return pair
}

func TestMutationGeometryBmin(t *testing.T) {
	sc, l := findLayout(t, func(l *layout.Layout) bool { return splitPair(l) != nil })
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckGeometry(l, in))

	// Move the cut between two leaf siblings to the left leaf's lower edge:
	// the leaves still tile their parent, every row still routes to a leaf
	// that contains it, but the left leaf is routed (almost) none of them,
	// below bmin.
	pair := splitPair(l)
	left, right := pair.Children[0], pair.Children[1]
	lb, rb := left.Desc.MBR().Clone(), right.Desc.MBR().Clone()
	d := 0
	for lb.Hi[d] == rb.Hi[d] {
		d++
	}
	lb.Hi[d], rb.Lo[d] = lb.Lo[d], math.Nextafter(lb.Lo[d], math.Inf(1))
	left.Desc, right.Desc = layout.NewRect(lb), layout.NewRect(rb)
	left.Part.Desc, right.Part.Desc = left.Desc, right.Desc
	err := invariant.CheckGeometry(l, in)
	expectOracle(t, err, invariant.OracleGeometry)
	if !strings.Contains(err.Error(), "below bmin") {
		t.Fatalf("want the emptied leaf reported below bmin, got: %v", err)
	}
}

func findMultiGroup(l *layout.Layout) *layout.Node {
	var mg *layout.Node
	l.Root.Walk(func(n *layout.Node) {
		if mg == nil && !n.IsLeaf() && n.Desc.Kind() == layout.KindRect &&
			n.Children[len(n.Children)-1].Desc.Kind() == layout.KindIrregular {
			mg = n
		}
	})
	return mg
}

func TestMutationGroupedSplitHole(t *testing.T) {
	sc, l := findLayout(t, func(l *layout.Layout) bool { return findMultiGroup(l) != nil })
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckGroupedSplit(l, in))

	// Drop one hole from the irregular remainder: IP no longer equals
	// parent minus GPs, so the remainder claims rows of a grouped sibling.
	mg := findMultiGroup(l)
	irNode := mg.Children[len(mg.Children)-1]
	ir := irNode.Desc.(layout.Irregular)
	irNode.Desc = layout.NewIrregular(ir.Outer, ir.Holes[:len(ir.Holes)-1])
	if irNode.IsLeaf() {
		irNode.Part.Desc = irNode.Desc
	}
	expectOracle(t, invariant.CheckGroupedSplit(l, in), invariant.OracleGroupedSplit)
}

func TestMutationGroupedSplitShrunkGP(t *testing.T) {
	sc, l := findLayout(t, func(l *layout.Layout) bool { return findMultiGroup(l) != nil })
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckGroupedSplit(l, in))

	// Shrink the first grouped partition towards its center: its group's
	// extended queries no longer fit inside it (and the stale hole no
	// longer matches the sibling's box).
	mg := findMultiGroup(l)
	gp := mg.Children[0]
	m := gp.Desc.MBR()
	c := m.Center()
	shrunk := geom.Box{Lo: make(geom.Point, m.Dims()), Hi: make(geom.Point, m.Dims())}
	for d := 0; d < m.Dims(); d++ {
		shrunk.Lo[d] = (m.Lo[d] + c[d]) / 2
		shrunk.Hi[d] = (m.Hi[d] + c[d]) / 2
	}
	gp.Desc = layout.NewRect(shrunk)
	if gp.IsLeaf() {
		gp.Part.Desc = gp.Desc
	}
	expectOracle(t, invariant.CheckGroupedSplit(l, in), invariant.OracleGroupedSplit)
}

func TestMutationMonotonicityStrict(t *testing.T) {
	sc, l := findLayout(t, func(l *layout.Layout) bool {
		return l.NumPartitions() >= 2 && len(l.Root.Children) >= 2
	})
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckMonotonicity(l, in))

	// Enlarge every root child to the whole domain: the root "split" now
	// saves nothing, which a greedy builder would never have accepted.
	rootBox := l.Root.Desc.MBR()
	for _, c := range l.Root.Children {
		c.Desc = layout.NewRect(rootBox)
	}
	expectOracle(t, invariant.CheckMonotonicity(l, in), invariant.OracleMonotonicity)
}

func TestMutationMonotonicityUniversal(t *testing.T) {
	// An irregular refinement node costs 0 on the node's extended queries
	// (they live in the holes); rectifying its children to the outer box
	// makes the children cost more than the parent — an increase even the
	// non-strict bound forbids.
	findIrr := func(l *layout.Layout) *layout.Node {
		var irr *layout.Node
		l.Root.Walk(func(n *layout.Node) {
			if irr == nil && !n.IsLeaf() && n.Desc.Kind() == layout.KindIrregular {
				irr = n
			}
		})
		return irr
	}
	sc, l := findLayout(t, func(l *layout.Layout) bool { return findIrr(l) != nil })
	in := sim.Inputs(sc, sim.MethodPAW)
	in.Greedy = false // target the universal bound only
	expectClean(t, invariant.CheckMonotonicity(l, in))

	irr := findIrr(l)
	for _, c := range irr.Children {
		c.Desc = layout.NewRect(c.Desc.MBR())
		if c.IsLeaf() {
			c.Part.Desc = c.Desc
		}
	}
	expectOracle(t, invariant.CheckMonotonicity(l, in), invariant.OracleMonotonicity)
}

func TestMutationLemma1NegativeSize(t *testing.T) {
	sc, l := findLayout(t, anyLayout)
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckLemma1(l, in))

	l.Parts[0].FullRows = -5
	expectOracle(t, invariant.CheckLemma1(l, in), invariant.OracleLemma1)
}

func TestMutationLemma1Drift(t *testing.T) {
	// The layout is untouched; the corruption is operational: future
	// workloads drift further than the declared δ, breaking the variance
	// contract Lemma 1 is conditioned on.
	sc, l := findLayout(t, anyLayout)
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckLemma1(l, in))

	root := l.Root.Desc.MBR()
	in.DriftDelta = in.Delta + 0.2*(root.Hi[0]-root.Lo[0])
	expectOracle(t, invariant.CheckLemma1(l, in), invariant.OracleLemma1)
}

func TestMutationRoutingWiring(t *testing.T) {
	sc, l := findLayout(t, anyLayout)
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckRouting(l, in))

	l.Parts[0], l.Parts[1] = l.Parts[1], l.Parts[0]
	expectOracle(t, invariant.CheckRouting(l, in), invariant.OracleRouting)
}

func TestMutationRoutingPrecise(t *testing.T) {
	sc, l := findLayout(t, func(l *layout.Layout) bool {
		return l.NumPartitions() >= 2 && l.Parts[0].FullRows > 0
	})
	in := sim.Inputs(sc, sim.MethodPAW)
	expectClean(t, invariant.CheckRouting(l, in))

	// A precise descriptor that covers none of the partition's records:
	// any query touching only those records would be wrongly pruned.
	l.Parts[0].Precise = []geom.Box{outsideBox(l.Root.Desc.MBR())}
	expectOracle(t, invariant.CheckRouting(l, in), invariant.OracleRouting)
}

func TestMutationTuner(t *testing.T) {
	sc, l := findLayout(t, anyLayout)
	queries := sc.Hist.Extend(sc.Delta).Boxes()
	domain := l.Root.Desc.MBR()
	full := layout.Extra{
		Box:      domain,
		FullRows: int64(sc.Data.NumRows()),
		RowBytes: sc.Data.RowBytes(),
	}
	expectClean(t, invariant.CheckTuner(l, sc.Data, queries, nil, 0))

	t.Run("over-budget", func(t *testing.T) {
		expectOracle(t,
			invariant.CheckTuner(l, sc.Data, queries, layout.Extras{full}, full.Bytes()-1),
			invariant.OracleTuner)
	})
	t.Run("wrong-size", func(t *testing.T) {
		lying := full
		lying.FullRows -= 7
		expectOracle(t,
			invariant.CheckTuner(l, sc.Data, queries, layout.Extras{lying}, full.Bytes()*2),
			invariant.OracleTuner)
	})
	t.Run("zero-gain", func(t *testing.T) {
		// A domain-sized copy can never beat scanning the base layout.
		expectOracle(t,
			invariant.CheckTuner(l, sc.Data, queries, layout.Extras{full}, full.Bytes()*2),
			invariant.OracleTuner)
	})
}
