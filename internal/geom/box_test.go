package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func box2(l0, l1, h0, h1 float64) Box {
	return Box{Lo: Point{l0, l1}, Hi: Point{h0, h1}}
}

func TestBoxContains(t *testing.T) {
	b := box2(0, 0, 10, 5)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},  // lower corner is closed
		{Point{10, 5}, true}, // upper corner is closed
		{Point{10.1, 5}, false},
		{Point{-0.1, 2}, false},
		{Point{5, 5.01}, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoxIntersects(t *testing.T) {
	b := box2(0, 0, 10, 10)
	cases := []struct {
		o    Box
		want bool
	}{
		{box2(5, 5, 15, 15), true},
		{box2(10, 10, 20, 20), true}, // touching at corner counts (closed)
		{box2(11, 0, 20, 10), false},
		{box2(-5, -5, -1, -1), false},
		{box2(2, 2, 3, 3), true}, // contained
		{box2(-1, -1, 11, 11), true},
	}
	for _, c := range cases {
		if got := b.Intersects(c.o); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", b, c.o, got, c.want)
		}
		if got := c.o.Intersects(b); got != c.want {
			t.Errorf("intersection not symmetric for %v", c.o)
		}
	}
}

func TestBoxIntersection(t *testing.T) {
	a := box2(0, 0, 10, 10)
	b := box2(5, -5, 20, 3)
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	want := box2(5, 0, 10, 3)
	if !got.Equal(want) {
		t.Errorf("Intersection = %v, want %v", got, want)
	}
	if _, ok := a.Intersection(box2(11, 11, 12, 12)); ok {
		t.Error("expected no intersection")
	}
}

func TestBoxEmpty(t *testing.T) {
	if box2(0, 0, 10, 10).IsEmpty() {
		t.Error("non-empty box reported empty")
	}
	if !box2(5, 0, 4, 10).IsEmpty() {
		t.Error("inverted box not reported empty")
	}
	if box2(3, 3, 3, 3).IsEmpty() {
		t.Error("degenerate point box should not be empty (it contains one point)")
	}
	empty := box2(5, 0, 4, 10)
	if empty.Intersects(box2(0, 0, 10, 10)) {
		t.Error("empty box must intersect nothing")
	}
	if empty.Volume() != 0 {
		t.Error("empty box must have zero volume")
	}
}

func TestBoxVolumeCenterRadius(t *testing.T) {
	b := box2(0, 2, 4, 8)
	if v := b.Volume(); v != 24 {
		t.Errorf("Volume = %v, want 24", v)
	}
	c := b.Center()
	if c[0] != 2 || c[1] != 5 {
		t.Errorf("Center = %v, want [2 5]", c)
	}
	r := b.Radius()
	if r[0] != 2 || r[1] != 3 {
		t.Errorf("Radius = %v, want [2 3]", r)
	}
}

func TestBoxExtend(t *testing.T) {
	b := box2(1, 1, 3, 3).Extend(0.5)
	want := box2(0.5, 0.5, 3.5, 3.5)
	if !b.Equal(want) {
		t.Errorf("Extend = %v, want %v", b, want)
	}
}

func TestBoxScale(t *testing.T) {
	b := box2(0, 0, 4, 2).Scale(1.5)
	want := box2(-1, -0.5, 5, 2.5)
	if !b.Equal(want) {
		t.Errorf("Scale = %v, want %v", b, want)
	}
	// f=1 is the identity.
	orig := box2(1, 2, 3, 4)
	if !orig.Scale(1).Equal(orig) {
		t.Error("Scale(1) should be identity")
	}
}

func TestMBR(t *testing.T) {
	got := MBR(box2(0, 0, 1, 1), box2(5, -2, 6, 0.5))
	want := box2(0, -2, 6, 1)
	if !got.Equal(want) {
		t.Errorf("MBR = %v, want %v", got, want)
	}
}

func TestSubtractDisjoint(t *testing.T) {
	a := box2(0, 0, 10, 10)
	out := Subtract(a, box2(20, 20, 30, 30))
	if len(out) != 1 || !out[0].Equal(a) {
		t.Errorf("subtracting a disjoint box should return the original, got %v", out)
	}
}

func TestSubtractCovering(t *testing.T) {
	a := box2(2, 2, 4, 4)
	out := Subtract(a, box2(0, 0, 10, 10))
	if len(out) != 0 {
		t.Errorf("subtracting a covering box should return nothing, got %v", out)
	}
}

func TestSubtractCenterHole(t *testing.T) {
	a := box2(0, 0, 10, 10)
	hole := box2(4, 4, 6, 6)
	out := Subtract(a, hole)
	// Volume must be 100 - 4 = 96 and pieces must be interior-disjoint.
	vol := 0.0
	for _, b := range out {
		vol += b.Volume()
	}
	if math.Abs(vol-96) > 1e-9 {
		t.Errorf("subtraction volume = %v, want 96", vol)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			inter, ok := out[i].Intersection(out[j])
			if ok && inter.Volume() > 1e-12 {
				t.Errorf("pieces %v and %v overlap with volume %v", out[i], out[j], inter.Volume())
			}
		}
	}
}

// TestSubtractPointMembership samples random points and checks that the
// subtraction result classifies them exactly as "in a, not interior to b".
func TestSubtractPointMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a := randomBox(rng, 3)
		b := randomBox(rng, 3)
		pieces := Subtract(a, b)
		for k := 0; k < 50; k++ {
			p := randomPointIn(rng, a)
			inPieces := false
			for _, pc := range pieces {
				if pc.Contains(p) {
					inPieces = true
					break
				}
			}
			interior := strictlyInside(p, b)
			if interior && inPieces {
				t.Fatalf("point %v interior to hole %v but present in subtraction of %v", p, b, a)
			}
			if !b.Contains(p) && !inPieces {
				t.Fatalf("point %v outside hole %v missing from subtraction of %v", p, b, a)
			}
		}
	}
}

func strictlyInside(p Point, b Box) bool {
	for d := range p {
		if p[d] <= b.Lo[d] || p[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

func randomBox(rng *rand.Rand, dims int) Box {
	lo := make(Point, dims)
	hi := make(Point, dims)
	for d := 0; d < dims; d++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return Box{Lo: lo, Hi: hi}
}

func randomPointIn(rng *rand.Rand, b Box) Point {
	p := make(Point, b.Dims())
	for d := range p {
		p[d] = b.Lo[d] + rng.Float64()*(b.Hi[d]-b.Lo[d])
	}
	return p
}

// TestSubtractAllVolume checks vol(a \ holes) + vol(a ∩ union(holes)) == vol(a)
// via Monte-Carlo estimation of the union term.
func TestSubtractAllVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := box2(0, 0, 10, 10)
	holes := []Box{box2(1, 1, 4, 4), box2(3, 3, 7, 6), box2(8, 0, 10, 2)}
	pieces := []Box{a}
	for _, h := range holes {
		var next []Box
		for _, c := range pieces {
			next = append(next, Subtract(c, h)...)
		}
		pieces = next
	}
	vol := 0.0
	for _, p := range pieces {
		vol += p.Volume()
	}
	// Monte-Carlo estimate of the hole-union volume inside a.
	const n = 200000
	hit := 0
	for i := 0; i < n; i++ {
		p := randomPointIn(rng, a)
		for _, h := range holes {
			if h.Contains(p) {
				hit++
				break
			}
		}
	}
	est := a.Volume() * float64(hit) / n
	if math.Abs((a.Volume()-est)-vol) > 1.0 { // MC tolerance
		t.Errorf("subtracted volume = %v, MC estimate of complement = %v", vol, a.Volume()-est)
	}
}

func TestUnitAndUniverseBox(t *testing.T) {
	u := UnitBox(3)
	if u.Volume() != 1 {
		t.Errorf("unit box volume = %v", u.Volume())
	}
	inf := UniverseBox(2)
	if !inf.Intersects(box2(1e18, -1e18, 2e18, 1e18)) {
		t.Error("universe box must intersect everything")
	}
	if !inf.Contains(Point{1e300, -1e300}) {
		t.Error("universe box must contain every point")
	}
}

func TestClip(t *testing.T) {
	a := box2(0, 0, 10, 10)
	got := box2(5, 5, 20, 20).Clip(a)
	if !got.Equal(box2(5, 5, 10, 10)) {
		t.Errorf("Clip = %v", got)
	}
	if !box2(20, 20, 30, 30).Clip(a).IsEmpty() {
		t.Error("clip of disjoint boxes should be empty")
	}
}

// Property: Intersects is consistent with Intersection.
func TestQuickIntersectsConsistent(t *testing.T) {
	f := func(l0, l1, h0, h1, m0, m1, n0, n1 float64) bool {
		a := box2(norm(l0), norm(l1), norm(h0), norm(h1))
		b := box2(norm(m0), norm(m1), norm(n0), norm(n1))
		_, ok := a.Intersection(b)
		return ok == a.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: MBR contains its inputs.
func TestQuickMBRContains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(6)
		boxes := make([]Box, n)
		for j := range boxes {
			boxes[j] = randomBox(rng, 4)
		}
		m := MBR(boxes...)
		for _, b := range boxes {
			if !m.ContainsBox(b) {
				t.Fatalf("MBR %v does not contain %v", m, b)
			}
		}
	}
}

// Property: Extend then query containment — the extended box contains every
// box within L-inf distance delta of the original (Lemma 1's geometric core).
func TestQuickExtendDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		q := randomBox(rng, 3)
		delta := rng.Float64()
		ext := q.Extend(delta)
		// Perturb each bound by at most delta.
		p := q.Clone()
		for d := range p.Lo {
			p.Lo[d] += (rng.Float64()*2 - 1) * delta
			p.Hi[d] += (rng.Float64()*2 - 1) * delta
			if p.Lo[d] > p.Hi[d] {
				p.Lo[d], p.Hi[d] = p.Hi[d], p.Lo[d]
			}
		}
		if !ext.ContainsBox(p) {
			t.Fatalf("extended box %v does not contain perturbed %v (delta=%v)", ext, p, delta)
		}
	}
}

func norm(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}
