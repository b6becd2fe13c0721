package layout

import (
	"bytes"
	"strings"
	"testing"

	"paw/internal/obs"
)

// TestBuildReportStoredBytes: the by-encoding census is an additive field of
// the v1 report — it survives a write/read round trip and `pawcli stats`
// prints each encoding's share, and a report without it (an older file, or a
// build that never materialised) carries no key and prints no line.
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
	if strings.Contains(bare.String(), "stored_bytes_by_encoding") || strings.Contains(rendered.String(), "stored:") {
		t.Fatalf("a report without a census must not mention one:\n%s\n%s", bare.String(), rendered.String())
	}

	r.StoredBytes = map[string]int64{"raw": 980, "rle": 15, "for": 5}
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
	want := "stored: 1000 bytes encoded — for 5 (0.5%) raw 980 (98.0%) rle 15 (1.5%)"
	if !strings.Contains(rendered.String(), want) {
		t.Fatalf("rendered report lacks %q:\n%s", want, rendered.String())
	}
}
