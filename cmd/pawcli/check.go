package main

import (
	"flag"
	"fmt"
	"os"

	"paw/internal/invariant"
	"paw/internal/layout"
)

// runCheck implements `pawcli check [-seed N] <layout-file>...`: it decodes
// each persisted layout and runs the sealed-layout oracle subset of
// internal/invariant (partition geometry, grouped-split semantics, routing
// and descriptor soundness). Construction inputs are gone for a persisted
// layout, so the workload-dependent oracles (Lemma 1, monotonicity, bmin)
// are not applicable here — they run in the simulation harness.
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
		if err := checkFile(path, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "pawcli check: %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if failed {
		os.Exit(1)
	}
}

func checkFile(path string, seed int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	l, err := layout.Decode(f)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if err := invariant.CheckSealed(l, seed); err != nil {
		return err
	}
	described, boxes := 0, 0
	for _, p := range l.Parts {
		if len(p.Precise) > 0 {
			described++
			boxes += len(p.Precise)
		}
	}
	fmt.Printf("%s: %s, index height %d, precise descriptors on %d partitions (%d boxes)\n",
		path, l, l.IndexHeight(), described, boxes)
	return nil
}
