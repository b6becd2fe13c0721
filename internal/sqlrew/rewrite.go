package sqlrew

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"paw/internal/geom"
)

// Rewriter converts WHERE clauses over a fixed numeric schema into range
// queries (Fig. 4, step 1).
type Rewriter struct {
	cols map[string]int
	dims int
}

// New builds a rewriter for the given column names; the i-th name maps to
// query dimension i. Matching is case-insensitive.
func New(columns []string) (*Rewriter, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("sqlrew: empty schema")
	}
	m := make(map[string]int, len(columns))
	for i, c := range columns {
		key := strings.ToLower(c)
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("sqlrew: duplicate column %q", c)
		}
		m[key] = i
	}
	return &Rewriter{cols: m, dims: len(columns)}, nil
}

// Rewrite parses the WHERE clause and returns the equivalent set of
// *disjoint* range queries: later disjuncts are geometrically subtracted
// from earlier ones, as in the paper's OR example (§III-B). Unconstrained
// dimensions are unbounded (±Inf). An empty clause means "everything" and
// yields one universe box.
func (r *Rewriter) Rewrite(where string) ([]geom.Box, error) {
	if strings.TrimSpace(where) == "" {
		return []geom.Box{geom.UniverseBox(r.dims)}, nil
	}
	p := parser{lexer: lexer{s: where}, r: r}
	p.advance()
	raw, err := p.parseChain(tokOr, false, nil, false)
	if p.err != nil {
		return nil, p.err // a lexical error reads as end of input to the descent
	}
	if err == nil && p.tok.kind != tokEOF {
		err = fmt.Errorf("sqlrew: unexpected %s at position %d", p.tok, p.tok.pos)
	}
	if err != nil {
		return nil, err
	}
	// Drop the conjunctions the parse left unsatisfiable.
	n := 0
	for _, b := range raw {
		if !b.IsEmpty() {
			raw[n] = b
			n++
		}
	}
	raw = raw[:n]
	if len(raw) <= 1 {
		return raw, nil
	}
	// Disjointify: each disjunct minus the union of its predecessors. A
	// disjunct can shatter on them (64 slabs on each of four columns are
	// 256 disjuncts and 17 million pieces), so the pieces are capped as they
	// are cut, like the disjuncts.
	var out []geom.Box
	for i, b := range raw {
		pieces := []geom.Box{b}
		for _, hole := range raw[:i] {
			var next []geom.Box
			for _, c := range pieces {
				next = append(next, geom.Subtract(c, hole)...)
			}
			pieces = next
			if err := checkBoxes(len(out) + len(pieces)); err != nil {
				return nil, err
			}
		}
		out = append(out, pieces...)
	}
	return out, nil
}

// RewriteSQL accepts a full "SELECT ... FROM ... [WHERE ...]" statement and
// rewrites its WHERE clause (everything after the last WHERE keyword).
// Statements without WHERE scan everything.
func (r *Rewriter) RewriteSQL(stmt string) ([]geom.Box, error) {
	idx := lastWhere(stmt)
	if idx < 0 {
		return []geom.Box{geom.UniverseBox(r.dims)}, nil
	}
	return r.Rewrite(stmt[idx+len("where"):])
}

// BoxSQL renders a finite box as a statement over columns, the i-th name
// bounding dimension i: the inverse of RewriteSQL, which parses it back to
// exactly [b] (%v prints the shortest float64 that parses to itself).
func BoxSQL(columns []string, b geom.Box) string {
	conds := make([]string, len(columns))
	for d, n := range columns {
		conds[d] = fmt.Sprintf("%s >= %v AND %s <= %v", n, b.Lo[d], n, b.Hi[d])
	}
	return "SELECT * FROM t WHERE " + strings.Join(conds, " AND ")
}

// lastWhere returns the byte offset of the last WHERE keyword in stmt, or -1.
// It folds case on the statement's own bytes, so the offset is one into stmt,
// and takes the word only where no identifier byte touches it: a column named
// nowhere is not a keyword.
func lastWhere(stmt string) int {
	const n = len("where")
	for i := len(stmt) - n; i >= 0; i-- {
		if stmt[i]|0x20 == 'w' && strings.EqualFold(stmt[i:i+n], "where") &&
			(i == 0 || !isIdentPart(stmt[i-1])) &&
			(i+n == len(stmt) || !isIdentPart(stmt[i+n])) {
			return i
		}
	}
	return -1
}

// column resolves a column name, case-insensitively, to its dimension. An
// ASCII name is folded on the stack and indexes the map without allocating;
// any other goes through the strings.ToLower that New keyed the map with.
func (r *Rewriter) column(name string) (int, bool) {
	var buf [64]byte
	key := buf[:0]
	for i := 0; i < len(name) && len(name) <= len(buf) && name[i] < utf8.RuneSelf; i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		key = append(key, c)
	}
	if len(key) < len(name) {
		key = []byte(strings.ToLower(name))
	}
	dim, ok := r.cols[string(key)]
	return dim, ok
}

// Dims returns the schema dimensionality.
func (r *Rewriter) Dims() int { return r.dims }
