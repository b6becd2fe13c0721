// Package sqlrew implements the SQL query rewriter of the PAW query
// framework (Fig. 4): WHERE clauses with unary numeric predicates are parsed
// and rewritten into one or more *disjoint* multi-dimensional range queries,
// exactly as §III-B describes (e.g. WHERE A>=10 OR B<=50 becomes
// [10,∞)×(−∞,∞) and (−∞,10)×(−∞,50]).
package sqlrew

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokOp
	tokLParen
	tokRParen
	tokAnd
	tokOr
	tokNot
	tokBetween
)

// opKind is a comparison operator, numbered so that op^1 is its logical
// negation (NOT a >= v is a < v) and, for the inequalities, op^2 its mirror
// image (10 <= a is a >= 10).
type opKind uint8

const (
	opGE opKind = iota
	opLT
	opLE
	opGT
	opEQ
	opNE
)

var keywords = [...]string{"and", "or", "not", "between"} // tokAnd … tokBetween, in order

// token is one lexeme; text is its slice of the clause, not a copy.
type token struct {
	kind tokenKind
	op   opKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer yields the tokens of a WHERE clause one at a time, straight from the
// string. Keywords are case-insensitive. A lexical error is kept in err and
// ends the input: every later call returns tokEOF.
type lexer struct {
	s   string
	pos int
	err error
}

func (l *lexer) fail(format string, args ...any) token {
	l.err, l.pos = fmt.Errorf(format, args...), len(l.s)
	return token{kind: tokEOF, pos: l.pos}
}

func (l *lexer) next() (t token) {
	s, i := l.s, l.pos
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	if i == len(s) {
		l.pos = i
		return token{kind: tokEOF, pos: i}
	}
	t.pos = i
	j := i + 1
	switch c := s[i]; {
	case c == '(':
		t.kind = tokLParen
	case c == ')':
		t.kind = tokRParen
	case c == '>' || c == '<' || c == '=':
		if j < len(s) && (s[j] == '=' || (c == '<' && s[j] == '>')) {
			j++
		}
		switch s[i:j] {
		case ">=":
			t.op = opGE
		case "<=":
			t.op = opLE
		case ">":
			t.op = opGT
		case "<":
			t.op = opLT
		case "=":
			t.op = opEQ
		case "<>":
			t.op = opNE
		default:
			return l.fail("sqlrew: unknown operator %q at position %d", s[i:j], i)
		}
		t.kind = tokOp
	case c == '-' || c == '.' || (c >= '0' && c <= '9'):
		for j < len(s) && (s[j] == '.' || s[j] == 'e' || s[j] == 'E' || s[j] == '-' || s[j] == '+' || (s[j] >= '0' && s[j] <= '9')) {
			// Allow '-'/'+' only directly after an exponent marker.
			if (s[j] == '-' || s[j] == '+') && !(s[j-1] == 'e' || s[j-1] == 'E') {
				break
			}
			j++
		}
		var err error
		if t.num, err = strconv.ParseFloat(s[i:j], 64); err != nil {
			return l.fail("sqlrew: bad number %q at position %d", s[i:j], i)
		}
		t.kind = tokNumber
	case isIdentStart(c):
		for j < len(s) && isIdentPart(s[j]) {
			j++
		}
		t.kind = tokIdent
		for k, word := range keywords {
			if len(word) == j-i && strings.EqualFold(s[i:j], word) {
				t.kind = tokAnd + tokenKind(k)
			}
		}
	default:
		return l.fail("sqlrew: unexpected character %q at position %d", c, i)
	}
	t.text, l.pos = s[i:j], j
	return t
}

// Identifiers are classified a byte at a time, a byte above 0x7f as the
// Latin-1 character of that value.
func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
