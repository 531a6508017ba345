// Command mrperf is the unified performance-benchmark runner: one
// scenario registry spanning the fluid kernel, the real engine
// runtime, the sharded shuffle store, trace capture, chaos recovery,
// and end-to-end experiment figures, behind a single JSON schema with
// robust statistics and an environment fingerprint. It also runs CI's
// quantitative gates, so the same checks run locally and in CI.
//
// Run scenarios and write the versioned report:
//
//	mrperf -run all -short -o BENCH_perf.json
//	mrperf -run 'kernel/*,engine/shuffle-heavy' -reps 10
//	mrperf -list
//
// Compare a fresh (or saved) run against a committed baseline; the
// verdict uses a Mann-Whitney U test plus a median-delta threshold and
// the exit status is non-zero on any significant regression:
//
//	mrperf compare -baseline BENCH_perf.json -current /tmp/bench_perf.json
//	mrperf compare -baseline BENCH_perf.json -short   # runs the suite now
//
// Run one CI gate (exit 1: failed; 2: usage or IO error, or a report
// without a scenario the gate compares):
//
//	mrperf gate coverage -profile /tmp/cover.out -floor 70
//	mrperf gate trace-overhead -report /tmp/bench_gates.json -max 0.05
//	mrperf gate kernel -report /tmp/bench_gates.json -min-speedup 3 -min-peak 4000
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcmr/perf"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		compareMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "gate" {
		gateMain(os.Args[2:])
		return
	}
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	runMain(args)
}

func runMain(args []string) {
	fs := flag.NewFlagSet("mrperf", flag.ExitOnError)
	var (
		pattern = fs.String("run", "all", "comma-separated scenario names or globs ('all', 'kernel/*')")
		short   = fs.Bool("short", false, "run reduced scales (the CI smoke size)")
		reps    = fs.Int("reps", 0, "measured repetitions per scenario (default 5 short, 15 full)")
		warmup  = fs.Int("warmup", 0, "unmeasured warmup runs per scenario (default 1)")
		out     = fs.String("o", "", "write the JSON report to this file (default stdout)")
		list    = fs.Bool("list", false, "list registered scenarios and exit")
		quiet   = fs.Bool("q", false, "suppress per-repetition progress")
	)
	fs.Parse(args)

	if *list {
		for _, s := range perf.Scenarios() {
			fmt.Printf("%-36s %s\n", s.Name, s.Desc)
		}
		return
	}
	rep := runSuite(*pattern, perf.RunOptions{Short: *short, Reps: *reps, Warmup: *warmup}, *quiet)
	if *out == "" {
		data, err := rep.Encode()
		if err != nil {
			fatal("%v", err)
		}
		os.Stdout.Write(data)
		return
	}
	if err := rep.WriteFile(*out); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "mrperf: wrote %d scenarios to %s\n", len(rep.Scenarios), *out)
}

func compareMain(args []string) {
	fs := flag.NewFlagSet("mrperf compare", flag.ExitOnError)
	var (
		baseline  = fs.String("baseline", "BENCH_perf.json", "baseline report file")
		current   = fs.String("current", "", "current report file (empty: run the suite now)")
		pattern   = fs.String("run", "all", "scenarios to run when -current is empty")
		short     = fs.Bool("short", false, "run reduced scales when -current is empty")
		reps      = fs.Int("reps", 0, "repetitions when -current is empty")
		threshold = fs.Float64("threshold", 0, "median-delta that matters (default 0.10)")
		alpha     = fs.Float64("alpha", 0, "Mann-Whitney significance level (default 0.05)")
		allocTh   = fs.Float64("alloc-threshold", 0, "allocation median-delta that matters (default 0.10)")
		extraTh   = fs.Float64("extra-threshold", 0, "gated-extra (shuffle volume) growth that matters (default 0.10)")
		quiet     = fs.Bool("q", false, "suppress per-repetition progress")
	)
	fs.Parse(args)

	base, err := perf.LoadReport(*baseline)
	if err != nil {
		fatal("%v", err)
	}
	var cur *perf.Report
	if *current != "" {
		if cur, err = perf.LoadReport(*current); err != nil {
			fatal("%v", err)
		}
	} else {
		cur = runSuite(*pattern, perf.RunOptions{Short: *short, Reps: *reps}, *quiet)
	}

	cmp := perf.Compare(base, cur, perf.Thresholds{
		MedianDelta: *threshold, Alpha: *alpha, AllocDelta: *allocTh, ExtraDelta: *extraTh,
	})
	fmt.Print(cmp.Table())
	if cmp.Regressed() {
		fmt.Fprintln(os.Stderr, "mrperf: performance regression detected")
		os.Exit(1)
	}
}

func runSuite(pattern string, o perf.RunOptions, quiet bool) *perf.Report {
	scens, err := perf.Select(pattern)
	if err != nil {
		fatal("%v", err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mrperf: "+format+"\n", args...)
	}
	if quiet {
		logf = nil
	}
	rep, err := perf.RunScenarios(scens, o, logf)
	if err != nil {
		fatal("%v", err)
	}
	return rep
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mrperf: "+format+"\n", args...)
	os.Exit(1)
}
