package sqlrew

import (
	"testing"

	"paw/internal/geom"
)

var benchSink []geom.Box

// BenchmarkRewriteSQL is the master's per-statement rewrite cost on the shape
// the end-to-end benchmark sends (`make bench-request-path`).
func BenchmarkRewriteSQL(b *testing.B) {
	r, err := New(goldenCols)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = r.RewriteSQL(benchStatement); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRewriteAllocs keeps the rewrite's garbage from creeping back: the
// statement needs its result slice and one box (3 allocations); the parser
// this one replaced made 103.
func TestRewriteAllocs(t *testing.T) {
	r := mustNew(t, goldenCols...)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.RewriteSQL(benchStatement); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("RewriteSQL of the benchmark statement: %v allocations, want <= 8", allocs)
	}
}
