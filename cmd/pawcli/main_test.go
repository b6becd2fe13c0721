package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paw/internal/dataset"
	"paw/internal/invariant"
	"paw/internal/layout"
	"paw/internal/workload"
)

const testRows, testSeed = 6000, 7

// writeDataset writes the REPL's dataset for testRows and testSeed as the
// PAWD file pawgen gen would.
func writeDataset(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.pawd")
	if err := writeFile(path, func(w io.Writer) error {
		_, err := dataset.TPCHLike(testRows, testSeed).WriteTo(w)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// build runs `pawcli build -in in` with extra flags and returns its stdout
// and the layout it wrote.
func build(t *testing.T, in string, extra ...string) (string, *layout.Layout) {
	t.Helper()
	dir := t.TempDir()
	layoutPath := filepath.Join(dir, "l.pawl")
	args := append([]string{"-in", in, "-seed", fmt.Sprint(testSeed), "-layout", layoutPath,
		"-report", filepath.Join(dir, "r.json"), "-log-level", "warn"}, extra...)
	var out bytes.Buffer
	if err := runBuild(args, &out); err != nil {
		t.Fatalf("pawcli build %v: %v", args, err)
	}
	f, err := os.Open(layoutPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := layout.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), l
}

// TestBuildWritesABootableLayout: the layout `build -in` writes passes the
// sealed-layout oracles `pawcli check` runs and pawmaster's and pawworker's
// boot check against the file it was built over, and the query log it writes
// beside it is the history the layout was built for.
func TestBuildWritesABootableLayout(t *testing.T) {
	in := writeDataset(t)
	dir := t.TempDir()
	layoutPath, queriesPath := filepath.Join(dir, "l.pawl"), filepath.Join(dir, "q.pawq")
	var out bytes.Buffer
	if err := runBuild([]string{"-in", in, "-layout", layoutPath, "-queries-out", queriesPath,
		"-report", filepath.Join(dir, "r.json"), "-log-level", "warn"}, &out); err != nil {
		t.Fatal(err)
	}
	data, l, err := invariant.LoadPair(in, layoutPath)
	if err != nil {
		t.Fatalf("boot check: %v", err)
	}
	if err := invariant.CheckSealed(l, 1); err != nil {
		t.Fatalf("sealed-layout oracles: %v", err)
	}
	var rows int64
	for _, p := range l.Parts {
		rows += p.FullRows
	}
	if rows != int64(data.NumRows()) {
		t.Fatalf("partitions hold %d rows, the file %d", rows, data.NumRows())
	}
	summary, err := checkFile(layoutPath, 1)
	if err != nil {
		t.Fatalf("pawcli check: %v", err)
	}
	if want := fmt.Sprintf("partitions: %d (", l.NumPartitions()); !strings.HasPrefix(summary, want) {
		t.Fatalf("check summary %q, want it to start %q", summary, want)
	}
	qf, err := os.Open(queriesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	qlog, err := workload.DecodeLog(qf)
	if err != nil {
		t.Fatal(err)
	}
	if qlog.Len() != 50 {
		t.Fatalf("query log holds %d queries, want the 50 of the default -queries", qlog.Len())
	}
}

// TestBuildDeltaIsPercentOfFirstColumn: -delta is a percentage of the first
// column's extent (paw.FractionOfDomain's rule), and the printed δ is that
// absolute value, the one pawmaster's -drift-delta takes.
func TestBuildDeltaIsPercentOfFirstColumn(t *testing.T) {
	in := writeDataset(t)
	dom := dataset.TPCHLike(testRows, testSeed).Domain()
	for _, pct := range []float64{1, 2.5} {
		out, _ := build(t, in, "-delta", fmt.Sprint(pct))
		var got float64
		line := out[strings.Index(out, "delta "):]
		if _, err := fmt.Sscanf(line, "delta %g", &got); err != nil {
			t.Fatalf("no δ in the output %q: %v", out, err)
		}
		if want := pct / 100 * (dom.Hi[0] - dom.Lo[0]); got != want {
			t.Fatalf("-delta %g printed δ = %g, want %g%% of the first column's extent = %g", pct, got, pct, want)
		}
	}
}

// TestREPLAndBuildAgree: the REPL over a generated dataset and `build` over
// the same rows in a file build the same layout from the same flags.
func TestREPLAndBuildAgree(t *testing.T) {
	in := writeDataset(t)
	for _, method := range []string{"paw", "qd-tree", "kd-tree"} {
		_, built := build(t, in, "-method", method)
		s, _, err := openREPL([]string{"-rows", fmt.Sprint(testRows), "-seed", fmt.Sprint(testSeed),
			"-method", method, "-log-level", "warn"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		want, err := built.Digest()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.l.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: the REPL built %s (%d partitions), build wrote %s (%d partitions)",
				method, got, s.l.NumPartitions(), want, built.NumPartitions())
		}
	}
}

// TestUnknownMethodIsNamed: an unknown -method fails both commands with an
// error that names it.
func TestUnknownMethodIsNamed(t *testing.T) {
	in := writeDataset(t)
	err := runBuild([]string{"-in", in, "-method", "r-tree", "-report", filepath.Join(t.TempDir(), "r.json"),
		"-log-level", "warn"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"r-tree"`) {
		t.Errorf("build -method r-tree: got %v, want an error naming the method", err)
	}
	_, _, err = openREPL([]string{"-rows", "1000", "-method", "r-tree", "-log-level", "warn"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"r-tree"`) {
		t.Errorf("REPL -method r-tree: got %v, want an error naming the method", err)
	}
}
