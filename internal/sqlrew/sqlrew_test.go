package sqlrew

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"paw/internal/geom"
)

func mustNew(t *testing.T, cols ...string) *Rewriter {
	t.Helper()
	r, err := New(cols)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// lexAll drains a lexer: every token up to and including tokEOF, or the
// lexical error.
func lexAll(s string) ([]token, error) {
	l := lexer{s: s}
	var out []token
	for {
		t := l.next()
		if l.err != nil {
			return nil, l.err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll("A >= 10 AND b_2 <= 5.5e2 OR (C < -3)")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokOp, tokNumber, tokAnd, tokIdent, tokOp, tokNumber,
		tokOr, tokLParen, tokIdent, tokOp, tokNumber, tokRParen, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %d, want %d (%s)", i, toks[i].kind, k, toks[i])
		}
	}
	if toks[1].op != opGE || toks[5].op != opLE || toks[10].op != opLT {
		t.Errorf("operators lexed as %d %d %d", toks[1].op, toks[5].op, toks[10].op)
	}
	if toks[6].num != 550 {
		t.Errorf("5.5e2 parsed as %v", toks[6].num)
	}
	if toks[11].num != -3 {
		t.Errorf("-3 parsed as %v", toks[11].num)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll("A >= #"); err == nil {
		t.Error("bad character must error")
	}
	if _, err := lexAll("A >= 1.2.3"); err == nil {
		t.Error("bad number must error")
	}
	if _, err := lexAll("A == 1"); err == nil {
		t.Error("an operator that is not a comparison must error")
	}
	// After an error the input is over: the parser may keep asking.
	l := lexer{s: "# A"}
	for i := 0; i < 3; i++ {
		if tok := l.next(); tok.kind != tokEOF || l.err == nil {
			t.Fatalf("call %d after a bad character: %v, err %v", i, tok.kind, l.err)
		}
	}
}

// TestOperatorNegation pins the opKind layout the parser leans on: op^1 is
// the logical negation, and op^2 mirrors an inequality across its operands.
func TestOperatorNegation(t *testing.T) {
	neg := map[opKind]opKind{opGE: opLT, opLT: opGE, opLE: opGT, opGT: opLE, opEQ: opNE, opNE: opEQ}
	for op, want := range neg {
		if op^1 != want {
			t.Errorf("op %d negates to %d, want %d", op, op^1, want)
		}
	}
	flip := map[opKind]opKind{opGE: opLE, opLE: opGE, opLT: opGT, opGT: opLT}
	for op, want := range flip {
		if op^2 != want {
			t.Errorf("op %d mirrors to %d, want %d", op, op^2, want)
		}
	}
}

func TestRewriteSimpleAnd(t *testing.T) {
	// The paper's example: WHERE A>=10 AND B<=50 → [10,∞)×(−∞,50].
	r := mustNew(t, "A", "B")
	boxes, err := r.Rewrite("A >= 10 AND B <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	b := boxes[0]
	if b.Lo[0] != 10 || !math.IsInf(b.Hi[0], 1) {
		t.Errorf("dim A = [%v, %v]", b.Lo[0], b.Hi[0])
	}
	if !math.IsInf(b.Lo[1], -1) || b.Hi[1] != 50 {
		t.Errorf("dim B = [%v, %v]", b.Lo[1], b.Hi[1])
	}
}

func TestRewriteOrDisjoint(t *testing.T) {
	// The paper's OR example: A>=10 OR B<=50 decomposes into the disjoint
	// [10,∞)×(−∞,∞) and (−∞,10)×(−∞,50].
	r := mustNew(t, "A", "B")
	boxes, err := r.Rewrite("A >= 10 OR B <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 2 {
		t.Fatalf("got %d boxes, want 2", len(boxes))
	}
	// Disjointness (no interior overlap).
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if inter, ok := boxes[i].Intersection(boxes[j]); ok && inter.Volume() > 0 {
				t.Errorf("boxes %d and %d overlap", i, j)
			}
		}
	}
	// Semantic equivalence on sample points.
	check := func(a, b float64, want bool) {
		p := geom.Point{a, b}
		got := false
		for _, bx := range boxes {
			if bx.Contains(p) {
				got = true
				break
			}
		}
		if got != want {
			t.Errorf("point (%v,%v): in-union=%v, want %v", a, b, got, want)
		}
	}
	check(10, 100, true) // A>=10
	check(5, 50, true)   // B<=50
	check(5, 51, false)  // neither
	check(15, 20, true)  // both
}

func TestRewriteBetween(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x BETWEEN 3 AND 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || boxes[0].Lo[0] != 3 || boxes[0].Hi[0] != 7 {
		t.Errorf("BETWEEN = %v", boxes)
	}
}

func TestRewriteStrictOps(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x > 3 AND x < 7")
	if err != nil {
		t.Fatal(err)
	}
	b := boxes[0]
	if !(b.Lo[0] > 3) || !(b.Hi[0] < 7) {
		t.Errorf("strict bounds not honoured: %v", b)
	}
	if b.Contains(geom.Point{3}) || b.Contains(geom.Point{7}) {
		t.Error("strict endpoints must be excluded")
	}
	if !b.Contains(geom.Point{3.0000001}) {
		t.Error("interior must be included")
	}
}

func TestRewriteEquality(t *testing.T) {
	r := mustNew(t, "x", "y")
	boxes, err := r.Rewrite("x = 5")
	if err != nil {
		t.Fatal(err)
	}
	if boxes[0].Lo[0] != 5 || boxes[0].Hi[0] != 5 {
		t.Errorf("equality = %v", boxes[0])
	}
}

func TestRewriteNotEqual(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x <> 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 2 {
		t.Fatalf("<> must produce 2 disjoint boxes, got %d", len(boxes))
	}
	for _, b := range boxes {
		if b.Contains(geom.Point{5}) {
			t.Error("<> boxes must exclude the value")
		}
	}
}

func TestRewriteNot(t *testing.T) {
	r := mustNew(t, "x", "y")
	boxes, err := r.Rewrite("NOT (x >= 10 AND y >= 10)")
	if err != nil {
		t.Fatal(err)
	}
	// De Morgan: x<10 OR y<10, as 2 disjoint boxes.
	in := func(a, b float64) bool {
		for _, bx := range boxes {
			if bx.Contains(geom.Point{a, b}) {
				return true
			}
		}
		return false
	}
	if !in(5, 100) || !in(100, 5) || in(10, 10) || in(20, 20) {
		t.Errorf("NOT rewrite wrong: %v", boxes)
	}
}

func TestRewriteFlippedOperands(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("10 <= x")
	if err != nil {
		t.Fatal(err)
	}
	if boxes[0].Lo[0] != 10 {
		t.Errorf("flipped operand: %v", boxes[0])
	}
	boxes, err = r.Rewrite("10 > x")
	if err != nil {
		t.Fatal(err)
	}
	if !(boxes[0].Hi[0] < 10) {
		t.Errorf("flipped strict operand: %v", boxes[0])
	}
}

func TestRewriteUnsatisfiable(t *testing.T) {
	r := mustNew(t, "x")
	boxes, err := r.Rewrite("x > 10 AND x < 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 0 {
		t.Errorf("unsatisfiable clause produced %v", boxes)
	}
}

func TestRewriteErrors(t *testing.T) {
	r := mustNew(t, "x")
	for _, bad := range []string{
		"z >= 5",        // unknown column
		"x >=",          // missing value
		"x 5",           // missing operator
		"(x >= 5",       // unbalanced paren
		"x >= 5 AND",    // dangling AND
		"x BETWEEN 3 7", // missing AND
		"AND x >= 5",    // leading AND
	} {
		if _, err := r.Rewrite(bad); err == nil {
			t.Errorf("clause %q must error", bad)
		}
	}
	if _, err := New(nil); err == nil {
		t.Error("empty schema must error")
	}
	if _, err := New([]string{"a", "A"}); err == nil {
		t.Error("duplicate (case-insensitive) columns must error")
	}
}

func TestRewriteEmptyAndSQL(t *testing.T) {
	r := mustNew(t, "x", "y")
	boxes, err := r.Rewrite("   ")
	if err != nil || len(boxes) != 1 {
		t.Fatalf("empty clause: %v, %v", boxes, err)
	}
	if !boxes[0].Contains(geom.Point{1e18, -1e18}) {
		t.Error("empty clause must scan everything")
	}
	boxes, err = r.RewriteSQL("SELECT * FROM t WHERE x >= 4")
	if err != nil || len(boxes) != 1 || boxes[0].Lo[0] != 4 {
		t.Fatalf("RewriteSQL: %v, %v", boxes, err)
	}
	boxes, err = r.RewriteSQL("SELECT * FROM t")
	if err != nil || len(boxes) != 1 {
		t.Fatalf("RewriteSQL without WHERE: %v, %v", boxes, err)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	r := mustNew(t, "Price")
	boxes, err := r.Rewrite("pRiCe between 1 and 2 and PRICE >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || boxes[0].Lo[0] != 1.5 || boxes[0].Hi[0] != 2 {
		t.Errorf("case-insensitive rewrite: %v", boxes)
	}
}

// TestDisjointUnionEquivalence: for random DNF clauses, the disjoint boxes'
// union must classify random points exactly like direct predicate
// evaluation.
func TestDisjointUnionEquivalence(t *testing.T) {
	r := mustNew(t, "a", "b")
	rng := rand.New(rand.NewSource(9))
	clauses := []string{
		"a >= 3 OR b <= 7",
		"a <= 4 OR a >= 6 OR b = 5",
		"(a >= 2 AND b >= 2) OR (a <= 8 AND b <= 1)",
		"NOT (a > 5) OR b > 9",
		"a <> 5 AND b >= 2",
	}
	evals := []func(a, b float64) bool{
		func(a, b float64) bool { return a >= 3 || b <= 7 },
		func(a, b float64) bool { return a <= 4 || a >= 6 || b == 5 },
		func(a, b float64) bool { return (a >= 2 && b >= 2) || (a <= 8 && b <= 1) },
		func(a, b float64) bool { return !(a > 5) || b > 9 },
		func(a, b float64) bool { return a != 5 && b >= 2 },
	}
	for ci, clause := range clauses {
		boxes, err := r.Rewrite(clause)
		if err != nil {
			t.Fatalf("clause %q: %v", clause, err)
		}
		// Pairwise interior-disjoint.
		for i := range boxes {
			for j := i + 1; j < len(boxes); j++ {
				if inter, ok := boxes[i].Intersection(boxes[j]); ok && inter.Volume() > 0 {
					t.Errorf("clause %q: boxes %d,%d overlap", clause, i, j)
				}
			}
		}
		for k := 0; k < 500; k++ {
			a := rng.Float64() * 10
			b := rng.Float64() * 10
			if k%10 == 0 {
				a = float64(rng.Intn(11)) // exercise integer boundaries
				b = float64(rng.Intn(11))
			}
			want := evals[ci](a, b)
			got := false
			for _, bx := range boxes {
				if bx.Contains(geom.Point{a, b}) {
					got = true
					break
				}
			}
			if got != want {
				t.Fatalf("clause %q point (%v,%v): got %v, want %v", clause, a, b, got, want)
			}
		}
	}
}

// TestRewriteSQLFindsWhereInTheStatementItself: the clause is located on the
// statement's own bytes. Upper-casing the statement first moved the offset
// for runes whose case pair has another byte length — ɐ grows (a panic, from
// one client frame), ı and ſ shrink (a shifted clause) — and matched the
// letters inside an identifier.
func TestRewriteSQLFindsWhereInTheStatementItself(t *testing.T) {
	r := mustNew(t, "x", "nowhere")
	boxes, err := r.RewriteSQL("ɐɐɐɐɐɐɐɐ WHERE")
	if err != nil || len(boxes) != 1 || !boxes[0].Contains(geom.Point{1e18, -1e18}) {
		t.Errorf("growing runes before an empty clause: %v, %v; want everything", boxes, err)
	}
	boxes, err = r.RewriteSQL("SELECT ıſıſıſ FROM t WHERE x >= 4")
	if err != nil || len(boxes) != 1 || boxes[0].Lo[0] != 4 || !math.IsInf(boxes[0].Lo[1], -1) {
		t.Errorf("shrinking runes before the clause: %v, %v; want x >= 4", boxes, err)
	}
	boxes, err = r.RewriteSQL("SELECT * FROM t WHERE nowhere >= 1")
	if err != nil || len(boxes) != 1 || boxes[0].Lo[1] != 1 || !math.IsInf(boxes[0].Lo[0], -1) {
		t.Errorf("a column named nowhere: %v, %v; want nowhere >= 1", boxes, err)
	}
	for stmt, want := range map[string]int{
		"":                            -1,
		"wher":                        -1,
		"where":                       0,
		"WHERE x":                     0,
		"SELECT * FROM anywhere":      -1,
		"SELECT * FROM t where_x":     -1,
		"SELECT * FROM t WHERE1":      -1,
		"SELECT * FROM t\tWhErE(x=1)": 16,
		"a WHERE b WHERE c":           10,
	} {
		if got := lastWhere(stmt); got != want {
			t.Errorf("lastWhere(%q) = %d, want %d", stmt, got, want)
		}
	}
}

// TestRewriteNegatedDoubleEquals: == lexed as an operator nothing could
// convert, which was an error — except under NOT, where negating it panicked.
func TestRewriteNegatedDoubleEquals(t *testing.T) {
	r := mustNew(t, "x")
	for _, clause := range []string{"NOT x == 5", "NOT (x >= 1 AND 5 == x)"} {
		if boxes, err := r.Rewrite(clause); err == nil {
			t.Errorf("clause %q must error, rewrote to %v", clause, boxes)
		}
	}
}

// TestColumnLookupFoldsLikeNew: a clause names a column in any case, found
// without allocating; names beyond ASCII go through the same strings.ToLower
// that New keyed them with.
func TestColumnLookupFoldsLikeNew(t *testing.T) {
	long := strings.Repeat("Long_Column_", 8) // longer than the lookup's stack buffer
	r := mustNew(t, "Price", "ª", long)
	for name, want := range map[string]int{"price": 0, "PRICE": 0, "ª": 1, strings.ToUpper(long): 2} {
		if dim, ok := r.column(name); !ok || dim != want {
			t.Errorf("column(%q) = %d, %v; want %d", name, dim, ok, want)
		}
	}
	if _, ok := r.column("pricey"); ok {
		t.Error("unknown column resolved")
	}
	if boxes, err := r.Rewrite("ª >= 2 AND " + strings.ToLower(long) + " <= 3"); err != nil || len(boxes) != 1 || boxes[0].Lo[1] != 2 || boxes[0].Hi[2] != 3 {
		t.Errorf("non-ASCII and long column names: %v, %v", boxes, err)
	}
}

// TestKeywordTableOrder: the lexer maps keywords[k] to tokAnd+k.
func TestKeywordTableOrder(t *testing.T) {
	want := map[string]tokenKind{"AND": tokAnd, "Or": tokOr, "nOt": tokNot, "BETWEEN": tokBetween, "andy": tokIdent, "o": tokIdent}
	for word, kind := range want {
		l := lexer{s: word}
		if tok := l.next(); tok.kind != kind || tok.text != word {
			t.Errorf("%q lexed as kind %d (%s), want %d", word, tok.kind, tok, kind)
		}
	}
}

// neBomb is a short statement whose normal form is huge: perCol `<>`
// factors on each of cols, all ANDed, are (perCol+1)^len(cols) boxes.
func neBomb(cols []string, perCol int) string {
	var sb strings.Builder
	sb.WriteString("SELECT * FROM t WHERE " + cols[0] + " >= 0")
	for _, c := range cols {
		for v := 1; v <= perCol; v++ {
			fmt.Fprintf(&sb, " AND %s <> %d", c, v)
		}
	}
	return sb.String()
}

// slabs ORs perCol equality slabs on each of cols: few disjuncts, but slabs of
// different columns all cross.
func slabs(cols []string, perCol int) string {
	var parts []string
	for _, c := range cols {
		for v := 0; v < perCol; v++ {
			parts = append(parts, fmt.Sprintf("%s = %d", c, v))
		}
	}
	return "SELECT * FROM t WHERE " + strings.Join(parts, " OR ")
}

// parenBomb nests one comparison in n parentheses.
func parenBomb(n int) string {
	return "SELECT * FROM t WHERE " + strings.Repeat("(", n) + "a >= 0" + strings.Repeat(")", n)
}

// TestRewriteCaps: a statement is client input to the master, and both of
// these are small frames. Uncapped, the first holds a core for 21 s to return
// 14 641 boxes and the second overflows the stack, which no recover catches.
// Both must fail fast with the typed error, and leave the rewriter usable.
func TestRewriteCaps(t *testing.T) {
	r := mustNew(t, "a", "b", "c", "d")
	for name, stmt := range map[string]string{
		"dnf":   neBomb([]string{"a", "b", "c", "d"}, 10),
		"depth": parenBomb(2_000_000),
		"nots":  "SELECT * FROM t WHERE " + strings.Repeat("NOT ", maxDepth+1) + "a >= 0",
		"ors":   "SELECT * FROM t WHERE a = 0" + strings.Repeat(" OR a = 1", maxBoxes),
		// 256 disjuncts, within the cap, that cut each other into 17 million
		// disjoint pieces (half as many took 10.9 s before the pieces were
		// capped as well).
		"shatter": slabs([]string{"a", "b", "c", "d"}, maxBoxes/4),
	} {
		start := time.Now()
		_, err := r.RewriteSQL(stmt)
		var lim *LimitError
		if !errors.As(err, &lim) {
			t.Errorf("%s: got %v, want a *LimitError", name, err)
		}
		// Milliseconds in practice; the bar only has to tell a refusal from
		// the seconds the uncapped parse took, on a loaded machine too.
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refused after %v", name, d)
		}
	}
	// At the caps, not over them.
	boxes, err := r.RewriteSQL("SELECT * FROM t WHERE a = 0" + strings.Repeat(" OR a = 1", maxBoxes-1))
	if err != nil || len(boxes) != 2 {
		t.Errorf("%d disjuncts: %d boxes, %v", maxBoxes, len(boxes), err)
	}
	// (perCol+1)^2 = 256 boxes over two columns is the largest product let through.
	boxes, err = r.RewriteSQL(neBomb([]string{"a", "b"}, 15))
	if err != nil || len(boxes) != maxBoxes {
		t.Errorf("15 <> per column on two columns: %d boxes, %v", len(boxes), err)
	}
}
