package invariant

import (
	"math/rand"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/parbuild"
)

// CheckRouting verifies descriptor and index soundness (§V-A, Fig. 4): the
// sealed routing structures never change an answer relative to the linear
// descriptor predicates, and precise descriptors never disown a record that
// was routed to their partition.
//
//   - Parts wiring: Parts[i].ID == i, Parts matches the leaves in pre-order,
//     and every leaf's partition carries the leaf's descriptor.
//   - Differential range routing: PartitionsFor and QueryCost answer exactly
//     like their *Linear references over a seeded probe set (random ranges,
//     every partition MBR, shrunk copies, and degenerate point boxes).
//   - Differential point routing: Locate agrees with LocateLinear over
//     sampled points, and a located partition's descriptor contains the
//     point.
//   - Precise descriptors (when Data is given): routing the full dataset,
//     fanned over GOMAXPROCS, every record that lands in a partition with a
//     precise descriptor is covered by one of its MBRs — otherwise the master
//     would skip a partition that holds matching records — and a record
//     inside the root region lands somewhere.
func CheckRouting(l *layout.Layout, in Inputs) error {
	in = in.withDefaults()
	if l.Root == nil {
		return violationf(OracleRouting, "layout has no root")
	}
	if err := checkWiring(l); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(in.Seed + 7))
	for _, q := range probeBoxes(rng, l, in) {
		fast := l.PartitionsFor(q)
		slow := l.PartitionsForLinear(q)
		if !equalIDs(fast, slow) {
			return violationf(OracleRouting,
				"index routes query %v to partitions %v, linear scan says %v", q, fast, slow)
		}
		if fc, sc := l.QueryCost(q, nil), l.QueryCostLinear(q, nil); fc != sc {
			return violationf(OracleRouting,
				"indexed cost of %v is %d bytes, linear cost is %d", q, fc, sc)
		}
	}
	for _, p := range probePoints(rng, l, in) {
		fast := l.Locate(p)
		slow := l.LocateLinear(p)
		switch {
		case (fast == nil) != (slow == nil):
			return violationf(OracleRouting,
				"point %v: indexed routing found=%v, linear found=%v", p, fast != nil, slow != nil)
		case fast != nil && fast.ID != slow.ID:
			return violationf(OracleRouting,
				"point %v routes to partition %d via the index, %d linearly", p, fast.ID, slow.ID)
		case fast != nil && !fast.Desc.Contains(p):
			return violationf(OracleRouting,
				"point %v was routed to partition %d whose region does not contain it", p, fast.ID)
		}
	}
	if in.Data == nil {
		return nil
	}
	data, root := in.Data, l.Root.Desc.MBR()
	pool := parbuild.New(0)
	type tally struct {
		routed, inside int
		err            error
	}
	tallies := make([]tally, pool.Workers())
	chunks := pool.FanChunks(pool.RootSlot(), data.NumRows(), 4096, func(c, lo, hi, _ int) {
		t := &tallies[c]
		pt := make(geom.Point, data.Dims())
	rows:
		for r := lo; r < hi; r++ {
			for d := range pt {
				pt[d] = data.At(r, d)
			}
			if root.Contains(pt) {
				t.inside++
			}
			p := l.Locate(pt)
			if p == nil {
				continue
			}
			t.routed++
			if len(p.Precise) == 0 {
				continue
			}
			for _, m := range p.Precise {
				if m.Contains(pt) {
					continue rows
				}
			}
			t.err = violationf(OracleRouting,
				"precise descriptor of partition %d disowns record %d at %v: queries matching it would be pruned",
				p.ID, r, pt)
			return
		}
	})
	routed, inside := 0, 0
	for _, t := range tallies[:chunks] {
		if t.err != nil {
			return t.err
		}
		routed, inside = routed+t.routed, inside+t.inside
	}
	if routed < inside {
		return violationf(OracleRouting,
			"%d records lie inside the root region but only %d were routed to a partition", inside, routed)
	}
	return nil
}

func checkWiring(l *layout.Layout) error {
	leaves := l.Root.Leaves()
	if len(leaves) != len(l.Parts) {
		return violationf(OracleRouting,
			"layout has %d leaves but %d partitions", len(leaves), len(l.Parts))
	}
	for i, leaf := range leaves {
		if l.Parts[i] != leaf.Part {
			return violationf(OracleRouting,
				"Parts[%d] is not the %d-th pre-order leaf's partition", i, i)
		}
		if leaf.Part.ID != layout.ID(i) {
			return violationf(OracleRouting,
				"partition at pre-order position %d carries ID %d", i, leaf.Part.ID)
		}
		if leaf.Part.Desc == nil || leaf.Desc == nil {
			return violationf(OracleRouting, "leaf %d is missing a descriptor", i)
		}
		if leaf.Part.Desc.Kind() != leaf.Desc.Kind() || !leaf.Part.Desc.MBR().Equal(leaf.Desc.MBR()) {
			return violationf(OracleRouting,
				"partition %d descriptor diverges from its leaf node descriptor", i)
		}
	}
	return nil
}

// probeBoxes builds the range-routing probe set: seeded random sub-boxes of
// the root MBR at mixed scales, every partition's MBR, a shrunk copy of
// each (strictly interior, exercising first-match ties), and degenerate
// point boxes at partition centers.
func probeBoxes(rng *rand.Rand, l *layout.Layout, in Inputs) []geom.Box {
	root := l.Root.Desc.MBR()
	dims := root.Dims()
	out := make([]geom.Box, 0, in.Queries+2*len(l.Parts))
	for i := 0; i < in.Queries; i++ {
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			length := root.Hi[d] - root.Lo[d]
			a := root.Lo[d] + rng.Float64()*length
			b := a + rng.Float64()*length*0.3
			if b > root.Hi[d] {
				b = root.Hi[d]
			}
			lo[d], hi[d] = a, b
		}
		out = append(out, geom.Box{Lo: lo, Hi: hi})
	}
	for _, p := range l.Parts {
		m := p.Desc.MBR()
		out = append(out, m)
		shrunk := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		center := m.Center()
		for d := 0; d < dims; d++ {
			shrunk.Lo[d] = (m.Lo[d] + center[d]) / 2
			shrunk.Hi[d] = (m.Hi[d] + center[d]) / 2
		}
		out = append(out, shrunk)
		out = append(out, geom.Box{Lo: center, Hi: center.Clone()})
	}
	return out
}

// probePoints builds the point-routing probe set: seeded uniform points in
// the root MBR, every partition's center, and a spread of dataset records.
func probePoints(rng *rand.Rand, l *layout.Layout, in Inputs) []geom.Point {
	root := l.Root.Desc.MBR()
	dims := root.Dims()
	out := make([]geom.Point, 0, in.Points+len(l.Parts))
	for i := 0; i < in.Points; i++ {
		p := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			p[d] = root.Lo[d] + rng.Float64()*(root.Hi[d]-root.Lo[d])
		}
		out = append(out, p)
	}
	for _, part := range l.Parts {
		out = append(out, part.Desc.MBR().Center())
	}
	if in.Data != nil && in.Data.NumRows() > 0 {
		stride := in.Data.NumRows()/in.Points + 1
		for r := 0; r < in.Data.NumRows(); r += stride {
			p := make(geom.Point, in.Data.Dims())
			for d := 0; d < in.Data.Dims(); d++ {
				p[d] = in.Data.At(r, d)
			}
			out = append(out, p)
		}
	}
	return out
}

func equalIDs(a, b []layout.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
