package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteTree renders spans as an EXPLAIN ANALYZE tree: one line per span with
// its duration and attributes, children indented under their parent in
// start order. Orphan spans (parent never recorded — a worker fragment whose
// request span was lost) root themselves. The output is stable for a given
// span list.
func WriteTree(w io.Writer, traceID uint64, spans []Span) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	fmt.Fprintf(w, "trace 0x%016x (%d spans)\n", traceID, len(spans))
	byID := make(map[uint32]bool, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = true
	}
	children := make(map[uint32][]Span)
	var roots []Span
	for _, sp := range spans {
		if sp.Parent == 0 || !byID[sp.Parent] {
			roots = append(roots, sp)
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	order := func(s []Span) {
		sort.SliceStable(s, func(i, j int) bool {
			if s[i].Start != s[j].Start {
				return s[i].Start < s[j].Start
			}
			return s[i].ID < s[j].ID
		})
	}
	order(roots)
	for k := range children {
		order(children[k])
	}
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		fmt.Fprintf(w, "%s%s  %v%s\n", strings.Repeat("  ", depth), sp.Name,
			time.Duration(sp.Dur).Round(time.Microsecond), formatAttrs(sp.Attrs))
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, sp := range roots {
		walk(sp, 0)
	}
}

// formatAttrs renders attributes as "  [k=v k=v]" (empty for none).
func formatAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("  [")
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", a.K, a.V)
	}
	b.WriteByte(']')
	return b.String()
}
