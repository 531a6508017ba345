// Command mrbench regenerates the paper's tables and figures. With no
// arguments it runs the full suite in paper order; pass experiment IDs
// (e.g. "fig7a fig14") to run a subset. -quick runs a proportionally
// scaled-down cluster for fast smoke runs. Each experiment's wall time
// goes to stderr, so stdout is byte-comparable across runs
// (testdata/full.stdout is the full-scale run at the default seed).
//
// mrbench reports the *modeled* numbers (virtual job times, ratios);
// for wall-clock performance measurement and regression gating use
// cmd/mrperf, which also runs fig7/fig13 points as end-to-end
// scenarios.
//
// Usage:
//
//	mrbench [-quick] [-seed N] [id ...]
//	mrbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hpcmr/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale (20 nodes, 1/25 data)")
	seed := flag.Int64("seed", 1, "seed for the node-skew model")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	csvDir := flag.String("csv", "", "also write each experiment's series as CSV into this directory")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		run, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		e := run(opt)
		fmt.Println(e.String())
		fmt.Fprintf(os.Stderr, "%s: generated in %.1fs wall time\n", id, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

func writeCSV(dir string, e *experiments.Experiment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, e.ID+".csv"))
	if err != nil {
		return err
	}
	if err := e.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
