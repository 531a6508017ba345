// Command cigate is the single CI gatekeeper: every quantitative gate
// the workflow enforces (coverage floor, trace-capture overhead,
// kernel speedup margin, perf regression) runs through this one Go
// tool, so the exact same logic runs locally and in CI — no inline
// script heredocs to drift.
//
//	cigate coverage -profile /tmp/cover.out -floor 70
//	cigate trace-overhead -report /tmp/bench_gates.json -max 0.05
//	cigate kernel -report /tmp/bench_gates.json -min-speedup 3 -min-peak 4000
//	cigate perf -baseline BENCH_perf.json -current /tmp/bench_perf.json
//
// trace-overhead and kernel compute their numbers from a mrperf report
// that holds the scenarios they compare (engine/many-short-tasks and
// trace/capture; kernel/churn-brute and kernel/churn-incremental, at
// full scale), e.g. from
//
//	mrperf -run 'kernel/*,engine/many-short-tasks,trace/capture' -reps 5 -q -o /tmp/bench_gates.json
//
// Each subcommand prints the measured numbers, then exits 1 when its
// gate fails (2 on usage/IO errors — a report missing a scenario the
// gate needs included).
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcmr/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "coverage":
		coverageCmd(os.Args[2:])
	case "trace-overhead":
		traceOverheadCmd(os.Args[2:])
	case "kernel":
		kernelCmd(os.Args[2:])
	case "perf":
		perfCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cigate {coverage|trace-overhead|kernel|perf} [flags]")
	os.Exit(2)
}

func coverageCmd(args []string) {
	fs := flag.NewFlagSet("cigate coverage", flag.ExitOnError)
	profile := fs.String("profile", "/tmp/cover.out", "go test -coverprofile output")
	floor := fs.Float64("floor", 70, "minimum total statement coverage (percent)")
	fs.Parse(args)

	f, err := os.Open(*profile)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	pct, err := perf.CoverageFromProfile(f)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("coverage: %.1f%% (floor %.1f%%)\n", pct, *floor)
	gate(perf.CheckCoverage(pct, *floor))
}

func traceOverheadCmd(args []string) {
	fs := flag.NewFlagSet("cigate trace-overhead", flag.ExitOnError)
	report := fs.String("report", "/tmp/bench_gates.json", "mrperf report with engine/many-short-tasks and trace/capture")
	maxOv := fs.Float64("max", 0.05, "maximum allowed relative overhead")
	fs.Parse(args)

	rep := loadReport(*report)
	overhead, events, tasks, err := perf.TraceOverhead(rep)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("trace overhead: %+.2f%% (%d events / %d tasks)\n", overhead*100, events, tasks)
	gate(perf.CheckTraceOverhead(overhead, events, tasks, *maxOv))
}

func kernelCmd(args []string) {
	fs := flag.NewFlagSet("cigate kernel", flag.ExitOnError)
	report := fs.String("report", "/tmp/bench_gates.json", "mrperf report with both kernel/churn scenarios")
	minSpeedup := fs.Float64("min-speedup", 3, "minimum incremental/brute speedup")
	minPeak := fs.Int("min-peak", 4000, "minimum peak concurrent flows")
	fs.Parse(args)

	rep := loadReport(*report)
	speedup, peak, err := perf.KernelSpeedup(rep)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("kernel speedup: %.2fx (peak %d flows)\n", speedup, peak)
	gate(perf.CheckKernel(speedup, peak, *minSpeedup, *minPeak))
}

func perfCmd(args []string) {
	fs := flag.NewFlagSet("cigate perf", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_perf.json", "baseline perf report")
	current := fs.String("current", "/tmp/bench_perf.json", "current perf report")
	threshold := fs.Float64("threshold", 0, "median-delta that matters (default 0.10)")
	alpha := fs.Float64("alpha", 0, "Mann-Whitney significance level (default 0.05)")
	allocTh := fs.Float64("alloc-threshold", 0, "allocation median-delta that matters (default 0.10)")
	extraTh := fs.Float64("extra-threshold", 0, "gated-extra (shuffle volume) growth that matters (default 0.10)")
	fs.Parse(args)

	cmp := perf.Compare(loadReport(*baseline), loadReport(*current), perf.Thresholds{
		MedianDelta: *threshold, Alpha: *alpha, AllocDelta: *allocTh, ExtraDelta: *extraTh,
	})
	fmt.Print(cmp.Table())
	if cmp.Regressed() {
		fmt.Fprintln(os.Stderr, "cigate: performance regression detected")
		os.Exit(1)
	}
}

// gate prints err and exits 1 when a gate fails.
func gate(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigate: GATE FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("cigate: ok")
}

// loadReport reads a mrperf report; an unreadable or invalid one is a
// usage error.
func loadReport(path string) *perf.Report {
	rep, err := perf.LoadReport(path)
	if err != nil {
		fatal("%v", err)
	}
	return rep
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cigate: "+format+"\n", args...)
	os.Exit(2)
}
