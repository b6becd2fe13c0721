package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"paw/internal/dataset"
	"paw/internal/invariant"
	"paw/internal/layout"
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

// build runs `pawcli build -in in` with extra flags and returns the path of
// the layout file it wrote and the layout decoded from it.
func build(t *testing.T, in string, extra ...string) (string, *layout.Layout) {
	t.Helper()
	dir := t.TempDir()
	layoutPath := filepath.Join(dir, "l.pawl")
	args := append([]string{"-in", in, "-seed", fmt.Sprint(testSeed), "-layout", layoutPath,
		"-report", filepath.Join(dir, "r.json"), "-log-level", "warn"}, extra...)
	if err := runBuild(args, io.Discard); err != nil {
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
	return layoutPath, l
}

// TestBuildWritesABootableLayout: the layout `build -in` writes carries the
// column names pawmaster routes SQL by, passes the routing oracle against the
// file it was built over and every oracle `pawcli check` runs,
// and it carries the history it was built for and its recipe — bmin and the
// 10 % sample's rate — which the check prints.
func TestBuildWritesABootableLayout(t *testing.T) {
	in := writeDataset(t)
	path, l := build(t, in)
	data, err := dataset.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l.Names, data.Names()) {
		t.Fatalf("the layout names the columns %q, the file %q", l.Names, data.Names())
	}
	if err := invariant.CheckRouting(l, invariant.Inputs{Data: data, Domain: data.Domain()}); err != nil {
		t.Fatalf("boot check: %v", err)
	}
	var rows int64
	for _, p := range l.Parts {
		rows += p.FullRows
	}
	if rows != int64(data.NumRows()) {
		t.Fatalf("partitions hold %d rows, the file %d", rows, data.NumRows())
	}
	summary, err := checkFile(path, 1)
	if err != nil {
		t.Fatalf("pawcli check: %v", err)
	}
	if want := fmt.Sprintf("partitions: %d (", l.NumPartitions()); !strings.HasPrefix(summary, want) {
		t.Fatalf("check summary %q, want it to start %q", summary, want)
	}
	if len(l.Hist) != 50 {
		t.Fatalf("the layout carries %d QH queries, want the 50 of the default -queries", len(l.Hist))
	}
	bmin := max(2, testRows/10/sampleBlocks)
	if l.MinRows != bmin || l.SampleRate != 0.1 {
		t.Fatalf("the layout carries bmin %d at sampling rate %g, want %d at 0.1", l.MinRows, l.SampleRate, bmin)
	}
	if want := fmt.Sprintf("|QH| 50, recipe paw, bmin %d sample rows (%d rows) at sampling rate 0.1", bmin, 10*bmin); !strings.Contains(summary, want) {
		t.Fatalf("check summary %q, want it to hold %q", summary, want)
	}
}

// TestCheckHoldsTheLayoutToItsScope: `pawcli check` runs the oracles against
// the QH and δ the file carries, so a PAW layout whose stored δ is doubled —
// a scope it was not built for — fails the grouped-split oracle: its grouped
// partitions no longer contain their groups' extended queries. (Qd-tree and
// k-d layouts have no grouped splits, so only PAW shows it.)
func TestCheckHoldsTheLayoutToItsScope(t *testing.T) {
	path, l := build(t, writeDataset(t), "-method", "paw")
	if _, err := checkFile(path, 1); err != nil {
		t.Fatalf("the layout as built: %v", err)
	}
	l.Delta *= 2
	if err := writeFile(path, l.Encode); err != nil {
		t.Fatal(err)
	}
	if _, err := checkFile(path, 1); err == nil || !strings.Contains(err.Error(), invariant.OracleGroupedSplit) {
		t.Fatalf("with δ doubled: got %v, want a %s violation", err, invariant.OracleGroupedSplit)
	}
}

// TestBuildDeltaIsPercentOfFirstColumn: -delta is a percentage of the first
// column's extent (paw.FractionOfDomain's rule), and the layout file stores
// that absolute δ.
func TestBuildDeltaIsPercentOfFirstColumn(t *testing.T) {
	in := writeDataset(t)
	dom := dataset.TPCHLike(testRows, testSeed).Domain()
	for _, pct := range []float64{1, 2.5} {
		_, l := build(t, in, "-delta", fmt.Sprint(pct))
		if want := pct / 100 * (dom.Hi[0] - dom.Lo[0]); l.Delta != want {
			t.Fatalf("-delta %g stored δ = %g, want %g%% of the first column's extent = %g", pct, l.Delta, pct, want)
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
