package sqlrew

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"paw/internal/geom"
)

// randCase spells a keyword in random letter case.
func randCase(rng *rand.Rand, kw string) string {
	b := []byte(strings.ToLower(kw))
	for i := range b {
		if rng.Intn(2) == 0 {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// randExpr generates a random predicate tree, returning both its SQL text
// and a direct evaluator — the oracle the parser+rewriter must agree with.
// There is deliberately no second parser to compare against.
func randExpr(rng *rand.Rand, cols []string, depth int) (string, func([]float64) bool) {
	if depth <= 0 || rng.Float64() < 0.4 {
		// Leaf: a comparison on a random column with a value in [0, 10].
		c := rng.Intn(len(cols))
		v := float64(rng.Intn(101)) / 10
		if rng.Intn(7) == 6 {
			lo := float64(rng.Intn(101)) / 10
			hi := lo + float64(rng.Intn(41))/10
			return fmt.Sprintf("%s %s %g %s %g", cols[c], randCase(rng, "between"), lo, randCase(rng, "and"), hi),
				func(x []float64) bool { return x[c] >= lo && x[c] <= hi }
		}
		ops := []struct {
			op, mirrored string
			eval         func(x, v float64) bool
		}{
			{">=", "<=", func(x, v float64) bool { return x >= v }},
			{"<=", ">=", func(x, v float64) bool { return x <= v }},
			{">", "<", func(x, v float64) bool { return x > v }},
			{"<", ">", func(x, v float64) bool { return x < v }},
			{"=", "=", func(x, v float64) bool { return x == v }},
			{"<>", "<>", func(x, v float64) bool { return x != v }},
		}
		o := ops[rng.Intn(len(ops))]
		eval := func(x []float64) bool { return o.eval(x[c], v) }
		if rng.Intn(3) == 0 { // number OP col
			return fmt.Sprintf("%g %s %s", v, o.mirrored, cols[c]), eval
		}
		return fmt.Sprintf("%s %s %g", cols[c], o.op, v), eval
	}
	switch rng.Intn(3) {
	case 0: // AND
		ls, lf := randExpr(rng, cols, depth-1)
		rs, rf := randExpr(rng, cols, depth-1)
		return fmt.Sprintf("(%s %s %s)", ls, randCase(rng, "and"), rs), func(x []float64) bool { return lf(x) && rf(x) }
	case 1: // OR
		ls, lf := randExpr(rng, cols, depth-1)
		rs, rf := randExpr(rng, cols, depth-1)
		return fmt.Sprintf("(%s %s %s)", ls, randCase(rng, "or"), rs), func(x []float64) bool { return lf(x) || rf(x) }
	default: // NOT
		s, f := randExpr(rng, cols, depth-1)
		return fmt.Sprintf("%s (%s)", randCase(rng, "not"), s), func(x []float64) bool { return !f(x) }
	}
}

// TestRandomClausesSemantics: for a thousand random predicate trees, the
// rewritten disjoint range set must classify random points exactly like
// direct evaluation, and the ranges must be pairwise interior-disjoint.
func TestRandomClausesSemantics(t *testing.T) {
	cols := []string{"a", "b", "c"}
	r, err := New(cols)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 1000; iter++ {
		sql, eval := randExpr(rng, cols, 4)
		boxes, err := r.Rewrite(sql)
		if err != nil {
			t.Fatalf("clause %q failed to parse: %v", sql, err)
		}
		for i := range boxes {
			for j := i + 1; j < len(boxes); j++ {
				if inter, ok := boxes[i].Intersection(boxes[j]); ok && inter.Volume() > 0 {
					t.Fatalf("clause %q: boxes %d and %d overlap", sql, i, j)
				}
			}
		}
		for k := 0; k < 60; k++ {
			x := []float64{
				float64(rng.Intn(101)) / 10, // grid points hit the literals
				float64(rng.Intn(101)) / 10,
				float64(rng.Intn(101)) / 10,
			}
			want := eval(x)
			got := false
			for _, b := range boxes {
				if b.Contains(geom.Point(x)) {
					got = true
					break
				}
			}
			if got != want {
				t.Fatalf("clause %q at %v: rewrite says %v, evaluator says %v\nboxes: %v",
					sql, x, got, want, boxes)
			}
		}
	}
	// BoxSQL is RewriteSQL's inverse on finite boxes, to the bit: random
	// bit patterns reach every exponent, and one bound in eight is a point.
	for iter := 0; iter < 1000; iter++ {
		b := geom.Box{Lo: make(geom.Point, len(cols)), Hi: make(geom.Point, len(cols))}
		for d := range cols {
			lo, hi := randFinite(rng), randFinite(rng)
			if rng.Intn(8) == 0 {
				hi = lo
			}
			b.Lo[d], b.Hi[d] = min(lo, hi), max(lo, hi)
		}
		sql := BoxSQL(cols, b)
		boxes, err := r.RewriteSQL(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(boxes) != 1 || !sameBits(boxes[0].Lo, b.Lo) || !sameBits(boxes[0].Hi, b.Hi) {
			t.Fatalf("%q rewrote to %v, want [%v]", sql, boxes, b)
		}
	}
}

// randFinite is a finite float64 of random bits.
func randFinite(rng *rand.Rand) float64 {
	for {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

func sameBits(a, b geom.Point) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestDeepNesting exercises the parser's recursion on a mechanically built,
// deeply parenthesised clause: maxDepth levels parse, one more is refused.
func TestDeepNesting(t *testing.T) {
	r, err := New([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	clause := "x >= 5"
	for i := 0; i < maxDepth; i++ {
		clause = "(" + clause + ")"
	}
	boxes, err := r.Rewrite(clause)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || boxes[0].Lo[0] != 5 {
		t.Errorf("deeply nested clause rewrote to %v", boxes)
	}
	var lim *LimitError
	if _, err := r.Rewrite("(" + clause + ")"); !errors.As(err, &lim) {
		t.Errorf("%d levels: got %v, want a *LimitError", maxDepth+1, err)
	}
}

// TestManyDisjuncts: a long OR chain produces many disjoint boxes whose
// union is still correct.
func TestManyDisjuncts(t *testing.T) {
	r, err := New([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for i := 0; i < 50; i++ {
		parts = append(parts, fmt.Sprintf("(x >= %d AND x <= %g)", 2*i, float64(2*i)+0.5))
	}
	boxes, err := r.Rewrite(strings.Join(parts, " OR "))
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 50 {
		t.Fatalf("got %d boxes, want 50 (inputs are already disjoint)", len(boxes))
	}
	for i := 0; i < 100; i++ {
		in := false
		for _, b := range boxes {
			if b.Contains(geom.Point{float64(i)}) {
				in = true
				break
			}
		}
		if in != (i%2 == 0) {
			t.Fatalf("x=%d classified %v", i, in)
		}
	}
}
