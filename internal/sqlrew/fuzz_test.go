package sqlrew

import (
	"testing"

	"paw/internal/geom"
)

// FuzzRewrite asserts the lexer/parser/rewriter never panic on arbitrary
// input and that accepted clauses always yield interiorly disjoint boxes.
func FuzzRewrite(f *testing.F) {
	seeds := []string{
		"A >= 10 AND B <= 50",
		"A >= 10 OR B <= 50",
		"x BETWEEN 3 AND 7",
		"NOT (a > 5) OR b <> 2",
		"((((a=1))))",
		"a >= 1e308 AND a <= -1e308",
		"a b c d",
		"AND OR NOT BETWEEN",
		">>><<<===",
		"a >= 5 anD a <= 6 Or b = 0.5",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	r, err := New([]string{"a", "b", "x"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, clause string) {
		boxes, err := r.Rewrite(clause)
		if err != nil {
			return // rejection is fine; panics are not
		}
		checkDisjoint(t, clause, boxes, 3)
	})
}

func checkDisjoint(t *testing.T, in string, boxes []geom.Box, dims int) {
	t.Helper()
	for i := range boxes {
		if boxes[i].Dims() != dims {
			t.Fatalf("box with %d dims from %q", boxes[i].Dims(), in)
		}
		for j := i + 1; j < len(boxes); j++ {
			if inter, ok := boxes[i].Intersection(boxes[j]); ok && inter.Volume() > 0 {
				t.Fatalf("overlapping boxes from %q", in)
			}
		}
	}
}

// FuzzRewriteSQL feeds whole statements — arbitrary bytes, valid UTF-8 or
// not — through the path a client frame takes: an error or disjoint boxes,
// never a panic.
func FuzzRewriteSQL(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t WHERE a >= 10 AND b <= 50",
		"SELECT * FROM t",
		"select * from t where not (a <> 1 or x between 2 and 3)",
		"ɐɐɐɐɐɐɐɐ WHERE",
		"SELECT ıſıſıſ FROM t WHERE x >= 4",
		"SELECT * FROM t WHERE nowhere >= 1",
		"WHERE NOT a == 5",
		"\xc9 WHERE \xff >= 1",
		"WHEREWHERE WHERE WHERE",
		// The two statements of TestRewriteCaps (the second at 1/100 of its
		// length, so that mutating it does not eat the fuzzing budget).
		neBomb([]string{"a", "b", "x", "nowhere"}, 10),
		parenBomb(20_000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	r, err := New([]string{"a", "b", "x", "nowhere"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		boxes, err := r.RewriteSQL(stmt)
		if err != nil {
			return
		}
		checkDisjoint(t, stmt, boxes, 4)
	})
}
