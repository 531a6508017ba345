package main

import (
	"flag"
	"fmt"
	"os"

	"hpcmr/perf"
)

// gateMain runs one CI gate. Each prints the measured numbers, then
// exits 1 when the gate fails and 2 on a usage or IO error — a report
// missing a scenario the gate needs included.
func gateMain(args []string) {
	if len(args) < 1 {
		gateFatal("usage: mrperf gate {coverage|trace-overhead|kernel} [flags]")
	}
	fs := flag.NewFlagSet("mrperf gate "+args[0], flag.ExitOnError)
	var err error
	switch args[0] {
	case "coverage":
		profile := fs.String("profile", "/tmp/cover.out", "go test -coverprofile output")
		floor := fs.Float64("floor", 70, "minimum total statement coverage (percent)")
		fs.Parse(args[1:])
		f, ferr := os.Open(*profile)
		if ferr != nil {
			gateFatal("%v", ferr)
		}
		defer f.Close()
		pct, ferr := perf.CoverageFromProfile(f)
		if ferr != nil {
			gateFatal("%v", ferr)
		}
		fmt.Printf("coverage: %.1f%% (floor %.1f%%)\n", pct, *floor)
		err = perf.CheckCoverage(pct, *floor)
	case "trace-overhead":
		report := fs.String("report", "/tmp/bench_gates.json", "mrperf report with engine/many-short-tasks and trace/capture")
		maxOv := fs.Float64("max", 0.05, "maximum allowed relative overhead")
		fs.Parse(args[1:])
		overhead, events, tasks, rerr := perf.TraceOverhead(loadGateReport(*report))
		if rerr != nil {
			gateFatal("%v", rerr)
		}
		fmt.Printf("trace overhead: %+.2f%% (%d events / %d tasks)\n", overhead*100, events, tasks)
		err = perf.CheckTraceOverhead(overhead, events, tasks, *maxOv)
	case "kernel":
		report := fs.String("report", "/tmp/bench_gates.json", "mrperf report with both kernel/churn scenarios")
		minSpeedup := fs.Float64("min-speedup", 3, "minimum incremental/brute speedup")
		minPeak := fs.Int("min-peak", 4000, "minimum peak concurrent flows")
		fs.Parse(args[1:])
		speedup, peak, rerr := perf.KernelSpeedup(loadGateReport(*report))
		if rerr != nil {
			gateFatal("%v", rerr)
		}
		fmt.Printf("kernel speedup: %.2fx (peak %d flows)\n", speedup, peak)
		err = perf.CheckKernel(speedup, peak, *minSpeedup, *minPeak)
	default:
		gateFatal("usage: mrperf gate {coverage|trace-overhead|kernel} [flags]")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrperf gate: GATE FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("mrperf gate: ok")
}

// loadGateReport reads a mrperf report; an unreadable or invalid one is
// a usage error.
func loadGateReport(path string) *perf.Report {
	rep, err := perf.LoadReport(path)
	if err != nil {
		gateFatal("%v", err)
	}
	return rep
}

func gateFatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mrperf gate: "+format+"\n", args...)
	os.Exit(2)
}
