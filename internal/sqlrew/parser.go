package sqlrew

import (
	"fmt"
	"math"

	"paw/internal/geom"
)

// The parser is one recursive descent that builds no tree: it carries the
// negation flag down (De Morgan: under NOT, AND and OR swap and every
// comparison flips) and produces the disjunctive normal form directly, one
// box per conjunction, in the order a left-to-right cross product gives.
//
// Every parse function takes the list parsed so far and the connective that
// joins what it parses onto it — conj for AND, otherwise OR — and returns the
// joined list; it owns left and may change its boxes in place, so a run of
// ANDed comparisons tightens one box instead of multiplying eight lists.
type parser struct {
	lexer
	tok   token // one token of lookahead
	r     *Rewriter
	depth int // open parentheses and NOTs around the current token
}

// A statement is client input, and both the descent's stack and the normal
// form's size grow faster than its length: a frame of parentheses recurses
// once per byte, and every <> or OR factor ANDed on multiplies the boxes.
// Both are capped while parsing, so neither is ever built.
const (
	maxDepth = 64  // nested parentheses and NOTs
	maxBoxes = 256 // disjuncts of the normal form, at any point of the parse
)

// LimitError reports a WHERE clause that exceeds a cap of the rewriter.
type LimitError struct {
	What string // what there is too much of
	Max  int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sqlrew: clause too complex: more than %d %s", e.Max, e.What)
}

// checkBoxes is the size cap: n is the length a list of boxes is about to
// reach.
func checkBoxes(n int) error {
	if n > maxBoxes {
		return &LimitError{What: "disjuncts in its normal form", Max: maxBoxes}
	}
	return nil
}

func (p *parser) advance() { p.tok = p.next() }

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.tok
	if t.kind != kind {
		return token{}, fmt.Errorf("sqlrew: expected %s, found %s at position %d", what, t, t.pos)
	}
	p.advance()
	return t, nil
}

// identity is the list that joining by conj leaves unchanged: everything for
// AND, nothing for OR.
func (p *parser) identity(conj bool) []geom.Box {
	if conj {
		return []geom.Box{geom.UniverseBox(p.r.dims)}
	}
	return nil
}

// join combines two lists: OR concatenates, AND is the cross product, left
// box major, without the pairs that do not meet. It fails, before building
// it, on a list longer than maxBoxes.
func join(left, right []geom.Box, conj bool) ([]geom.Box, error) {
	if !conj {
		if len(left) == 0 {
			return right, nil
		}
		return append(left, right...), checkBoxes(len(left) + len(right))
	}
	var out []geom.Box
	for _, a := range left {
		for _, b := range right {
			if c, ok := a.Intersection(b); ok {
				if err := checkBoxes(len(out) + 1); err != nil {
					return nil, err
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// parseChain parses `operand {sep operand}` at one precedence level: sep is
// tokOr over AND-chains, or tokAnd over unaries. Operands whose connective is
// the one the chain itself is joined by fold straight onto left.
func (p *parser) parseChain(sep tokenKind, neg bool, left []geom.Box, conj bool) ([]geom.Box, error) {
	inner := (sep == tokAnd) != neg
	acc := left
	if inner != conj {
		acc = p.identity(inner)
	}
	for {
		var err error
		if sep == tokOr {
			acc, err = p.parseChain(tokAnd, neg, acc, inner)
		} else {
			acc, err = p.parseUnary(neg, acc, inner)
		}
		if err != nil {
			return nil, err
		}
		if p.tok.kind != sep {
			break
		}
		p.advance()
	}
	if inner != conj {
		return join(left, acc, conj)
	}
	return acc, nil
}

func (p *parser) parseUnary(neg bool, left []geom.Box, conj bool) ([]geom.Box, error) {
	if p.tok.kind != tokNot && p.tok.kind != tokLParen {
		return p.parsePredicate(neg, left, conj)
	}
	if p.depth++; p.depth > maxDepth {
		return nil, &LimitError{What: "nested parentheses and NOTs", Max: maxDepth}
	}
	defer func() { p.depth-- }()
	if p.tok.kind == tokNot {
		p.advance()
		return p.parseUnary(!neg, left, conj)
	}
	p.advance()
	out, err := p.parseChain(tokOr, neg, left, conj)
	if err == nil {
		_, err = p.expect(tokRParen, "')'")
	}
	return out, err
}

// parsePredicate accepts `col OP number`, `number OP col`, and
// `col BETWEEN a AND b`.
func (p *parser) parsePredicate(neg bool, left []geom.Box, conj bool) ([]geom.Box, error) {
	switch p.tok.kind {
	case tokIdent:
		col := p.tok
		p.advance()
		switch p.tok.kind {
		case tokBetween:
			p.advance()
			lo, err := p.expect(tokNumber, "number")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokAnd, "AND"); err != nil {
				return nil, err
			}
			hi, err := p.expect(tokNumber, "number")
			if err != nil {
				return nil, err
			}
			if neg {
				return p.bounds(left, conj, col, false, bound{opLT, lo.num}, bound{opGT, hi.num})
			}
			return p.bounds(left, conj, col, true, bound{opGE, lo.num}, bound{opLE, hi.num})
		case tokOp:
			op := p.tok.op
			p.advance()
			v, err := p.expect(tokNumber, "number")
			if err != nil {
				return nil, err
			}
			return p.comparison(neg, left, conj, col, op, v.num)
		default:
			return nil, fmt.Errorf("sqlrew: expected comparison after column %q at position %d", col.text, p.tok.pos)
		}
	case tokNumber:
		v := p.tok
		p.advance()
		op, err := p.expect(tokOp, "comparison operator")
		if err != nil {
			return nil, err
		}
		col, err := p.expect(tokIdent, "column name")
		if err != nil {
			return nil, err
		}
		if op.op < opEQ {
			op.op ^= 2 // 10 <= A means A >= 10
		}
		return p.comparison(neg, left, conj, col, op.op, v.num)
	default:
		return nil, fmt.Errorf("sqlrew: expected predicate, found %s at position %d", p.tok, p.tok.pos)
	}
}

// comparison joins `col op v` onto left. A box has no hole, so <> (and a
// negated =) is the two disjuncts col < v OR col > v.
func (p *parser) comparison(neg bool, left []geom.Box, conj bool, col token, op opKind, v float64) ([]geom.Box, error) {
	if neg {
		op ^= 1
	}
	if op == opNE {
		return p.bounds(left, conj, col, false, bound{opLT, v}, bound{opGT, v})
	}
	return p.bounds(left, conj, col, conj, bound{op, v})
}

// bound is one side of a column's range: an operator other than <> and its
// operand.
type bound struct {
	op opKind
	v  float64
}

// bounds joins onto left the bounds bs on one column, themselves joined by
// inner: it is parseChain's fold with bounds for operands. Under AND a bound
// tightens every box in place; under OR it adds its half-space as a disjunct.
func (p *parser) bounds(left []geom.Box, conj bool, col token, inner bool, bs ...bound) ([]geom.Box, error) {
	dim, ok := p.r.column(col.text)
	if !ok {
		return nil, fmt.Errorf("sqlrew: unknown column %q", col.text)
	}
	acc := left
	if inner != conj {
		acc = p.identity(inner)
	}
	for _, b := range bs {
		if !inner {
			if err := checkBoxes(len(acc) + 1); err != nil {
				return nil, err
			}
			acc = append(acc, geom.UniverseBox(p.r.dims))
			b.tighten(acc[len(acc)-1], dim)
			continue
		}
		for _, box := range acc {
			b.tighten(box, dim)
		}
	}
	if inner != conj {
		return join(left, acc, conj)
	}
	return acc, nil
}

// tighten intersects box with `column dim op v`, in place.
func (b bound) tighten(box geom.Box, dim int) {
	switch b.op {
	case opGE:
		box.Lo[dim] = math.Max(box.Lo[dim], b.v)
	case opGT:
		box.Lo[dim] = math.Max(box.Lo[dim], math.Nextafter(b.v, math.Inf(1)))
	case opLE:
		box.Hi[dim] = math.Min(box.Hi[dim], b.v)
	case opLT:
		box.Hi[dim] = math.Min(box.Hi[dim], math.Nextafter(b.v, math.Inf(-1)))
	case opEQ:
		box.Lo[dim] = math.Max(box.Lo[dim], b.v)
		box.Hi[dim] = math.Min(box.Hi[dim], b.v)
	}
}
