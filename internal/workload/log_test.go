package workload

import (
	"bytes"
	"sync"
	"testing"

	"paw/internal/geom"
)

func TestLogRecordAndSnapshot(t *testing.T) {
	var l Log
	if l.Len() != 0 {
		t.Fatal("fresh log not empty")
	}
	l.Record(q2(0, 0, 1, 1).Box)
	l.Record(q2(2, 2, 3, 3).Box)
	l.Record(q2(4, 4, 5, 5).Box)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	w := l.Workload()
	for i, q := range w {
		if q.Seq != int64(i) {
			t.Errorf("entry %d has seq %d", i, q.Seq)
		}
	}
	// Snapshots are independent copies.
	w[0].Box.Lo[0] = 99
	if l.Workload()[0].Box.Lo[0] == 99 {
		t.Error("snapshot aliases the log")
	}
}

func TestLogConcurrentRecord(t *testing.T) {
	var l Log
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(q2(0, 0, 1, 1).Box)
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("len = %d, want 800", l.Len())
	}
	// Sequence numbers are unique.
	seen := map[int64]bool{}
	for _, q := range l.Workload() {
		if seen[q.Seq] {
			t.Fatalf("duplicate seq %d", q.Seq)
		}
		seen[q.Seq] = true
	}
}

func TestLogRoundTrip(t *testing.T) {
	var l Log
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	for _, q := range Uniform(dom, Defaults(50, 1)) {
		l.Record(q.Box)
	}
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("len %d vs %d", got.Len(), l.Len())
	}
	a, b := l.Workload(), got.Workload()
	for i := range a {
		if a[i].Seq != b[i].Seq || !a[i].Box.Equal(b[i].Box) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	// Recording continues with the right next sequence.
	got.Record(dom)
	w := got.Workload()
	if w[len(w)-1].Seq != int64(l.Len()) {
		t.Errorf("resumed seq = %d, want %d", w[len(w)-1].Seq, l.Len())
	}
}

func TestLogRoundTripEmpty(t *testing.T) {
	var l Log
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("len = %d", got.Len())
	}
}

func TestDecodeLogRejectsGarbage(t *testing.T) {
	if _, err := DecodeLog(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6})); err == nil {
		t.Error("bad magic must error")
	}
	var l Log
	l.Record(q2(0, 0, 1, 1).Box)
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLog(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Error("truncation must error")
	}
}

// TestLogDrivesEstimation: a log of historical-then-drifted queries yields a
// sensible δ′ estimate (the production flow: record → estimate → rebuild).
func TestLogDrivesEstimation(t *testing.T) {
	dom := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	hist := Uniform(dom, Defaults(30, 2))
	var l Log
	for _, q := range hist {
		l.Record(q.Box)
	}
	for _, q := range Future(hist, 2.5, 1, 3) {
		l.Record(q.Box)
	}
	d, err := EstimateDelta(l.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 2.5+1e-9 {
		t.Errorf("estimated δ' = %v, want in (0, 2.5]", d)
	}
}
