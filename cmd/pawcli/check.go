package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"paw/internal/core"
	"paw/internal/invariant"
	"paw/internal/layout"
	"paw/internal/workload"
)

// runCheck implements `pawcli check [-seed N] <layout-file>...`: it decodes
// each persisted layout and runs internal/invariant's oracles against the
// scope the file carries — partition geometry, grouped-split semantics and
// Lemma 1 against its QH and δ, routing and descriptor soundness — over the
// root's MBR as the domain, then prints a summary beside the verdict:
// partitions, irregular partitions, the fewest and most rows in one, δ, |QH|
// and the recipe (method, bmin in sample rows and rows, sampling rate). A
// file keeps no sample rows, so monotonicity and bmin skip themselves; they
// run in the simulation harness.
//
// Exit status: 0 when every layout passes, 1 when any invariant is violated
// or a file cannot be read.
func runCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed for the sampled geometry and routing probes")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pawcli check [-seed N] <layout-file>...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(1)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(1)
	}
	failed := false
	for _, path := range fs.Args() {
		summary, err := checkFile(path, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pawcli check: %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok; %s\n", path, summary)
	}
	if failed {
		os.Exit(1)
	}
}

func checkFile(path string, seed int64) (string, error) {
	l, err := layout.ReadFile(path)
	if err != nil {
		return "", err
	}
	if err := invariant.Check(l, invariant.Inputs{
		Domain: l.Root.Desc.MBR(),
		Hist:   workload.FromBoxes(l.Hist),
		Delta:  l.Delta,
		Greedy: core.Method(l.Method).Greedy(),
		Seed:   seed,
	}); err != nil {
		return "", err
	}
	described, boxes, irregular := 0, 0, 0
	minRows, maxRows := int64(math.MaxInt64), int64(0)
	for _, p := range l.Parts {
		if len(p.Precise) > 0 {
			described++
			boxes += len(p.Precise)
		}
		if p.Desc.Kind() == layout.KindIrregular {
			irregular++
		}
		minRows, maxRows = min(minRows, p.FullRows), max(maxRows, p.FullRows)
	}
	fmt.Printf("%s: %s, index height %d, precise descriptors on %d partitions (%d boxes)\n",
		path, l, l.IndexHeight(), described, boxes)
	recipe := "no recipe"
	if l.CheckRecipe() == nil {
		recipe = fmt.Sprintf("recipe %s, bmin %d sample rows (%.0f rows) at sampling rate %g",
			l.Method, l.MinRows, float64(l.MinRows)/l.SampleRate, l.SampleRate)
	}
	return fmt.Sprintf("partitions: %d (%d irregular); rows per partition: min %d, max %d; δ %g, |QH| %d, %s",
		l.NumPartitions(), irregular, minRows, maxRows, l.Delta, len(l.Hist), recipe), nil
}
