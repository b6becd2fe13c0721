package layout

import (
	"bytes"
	"strings"
	"testing"

	"paw/internal/obs"
)

// TestBuildReportStoredBytes: the by-encoding census and the count of
// searchable raw chunks are additive fields of the v1 report — they survive a
// write/read round trip and `pawcli stats` prints each encoding's share, the
// mean width raw values are packed at, and each tail column's share, and a
// report without them (an older file, or a build that never materialised)
// carries no key and prints no line.
func TestBuildReportStoredBytes(t *testing.T) {
	l, err := fuzzGrid()
	if err != nil {
		t.Fatal(err)
	}
	r := NewBuildReport(l, obs.Snapshot{})
	var bare, rendered bytes.Buffer
	if err := r.WriteJSON(&bare); err != nil {
		t.Fatal(err)
	}
	r.Render(&rendered)
	if strings.Contains(bare.String(), "stored_bytes_by_encoding") || strings.Contains(rendered.String(), "stored:") ||
		strings.Contains(bare.String(), "searchable") || strings.Contains(rendered.String(), "searchable") {
		t.Fatalf("a report without a census must not mention one:\n%s\n%s", bare.String(), rendered.String())
	}

	r.StoredBytes = map[string]int64{"raw": 980, "rle": 15, "for": 5}
	r.Search = &SearchCensus{RawChunks: 12, RawBits: 615, Searchable: 8, Pieces: 160, Rows: 14240, ByColumn: map[string]int{"lon": 6, "lat": 2}}
	var doc bytes.Buffer
	if err := r.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBuildReport(&doc)
	if err != nil {
		t.Fatal(err)
	}
	rendered.Reset()
	back.Render(&rendered)
	for _, want := range []string{
		"stored: 1000 bytes encoded — for 5 (0.5%) raw 980 (98.0%, 51.2 bits a value) rle 15 (1.5%)",
		"searchable: 8 of 12 raw chunks, ascending pieces of 89.0 rows (mean) — lat 25.0% lon 75.0%",
	} {
		if !strings.Contains(rendered.String(), want) {
			t.Fatalf("rendered report lacks %q:\n%s", want, rendered.String())
		}
	}
}
