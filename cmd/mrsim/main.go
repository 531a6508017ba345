// Command mrsim runs a single simulated MapReduce job on a configurable
// cluster and prints its per-phase dissection and task statistics — the
// exploratory companion to mrbench's fixed experiment suite.
//
// Usage examples:
//
//	mrsim -bench groupby -data 600e9 -split 256e6 -device ssd
//	mrsim -bench grep -data 200e9 -input lustre -nodes 50
//	mrsim -bench lr -data 100e9 -input hdfs -policy delay
//	mrsim -bench groupby -data 1.2e12 -policy elb -store local -skew
//
// Tracing: -trace writes a Chrome trace_event JSON of the run (task,
// fetch, and scheduler-decision spans on the virtual clock; load it in
// Perfetto or chrome://tracing, or pipe "-trace -" into mrtrace):
//
//	mrsim -bench groupby -data 400e9 -skew -policy elb -trace - | mrtrace summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hpcmr/sim"
	"hpcmr/trace"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	default:
		fmt.Fprintf(os.Stderr, "mrsim: %v\n", err)
		os.Exit(2)
	}
}

// run parses args, simulates the job and writes the report to stdout —
// or to stderr when a trace streams to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "groupby", "benchmark: groupby | grep | lr")
		data     = fs.Float64("data", 100e9, "input size in bytes")
		split    = fs.Float64("split", 256e6, "split size in bytes")
		nodes    = fs.Int("nodes", 100, "worker nodes")
		device   = fs.String("device", "ramdisk", "local device: ramdisk | ssd | none")
		input    = fs.String("input", "generated", "input source: generated | hdfs | lustre")
		store    = fs.String("store", "local", "intermediate store: local | lustre-local | lustre-shared | none")
		policy   = fs.String("policy", "fifo", "map policy: fifo | locality | delay | elb")
		cad      = fs.Bool("cad", false, "enable congestion-aware dispatching for the storing phase")
		skew     = fs.Bool("skew", false, "enable node performance skew")
		seed     = fs.Int64("seed", 1, "skew seed")
		verbose  = fs.Bool("v", false, "print per-iteration dissections")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON to this file ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	report := stdout
	if *traceOut == "-" {
		report = stderr
	}

	c, err := sim.New(sim.Config{Nodes: *nodes, Device: sim.Device(*device), Skew: *skew, Seed: *seed})
	if err != nil {
		return err
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = c.Trace()
	}
	// "local" keeps the workload's own store: LR stays storeless.
	st := sim.Store(*store)
	if st == "local" {
		st = ""
	}
	res, err := c.Run(sim.Job{
		Benchmark:  sim.Benchmark(*bench),
		InputBytes: *data,
		SplitBytes: *split,
		Input:      sim.Input(*input),
		Store:      st,
		Policy:     sim.Policy(*policy),
		CAD:        *cad,
	})
	if err != nil {
		return err
	}

	if tracer != nil {
		events := tracer.Events()
		if d := tracer.Drops(); d > 0 {
			fmt.Fprintf(stderr, "mrsim: trace ring overflowed, oldest %d events dropped\n", d)
		}
		if *traceOut == "-" {
			err = trace.WriteChrome(stdout, events)
		} else if err = trace.WriteFile(*traceOut, events); err == nil {
			fmt.Fprintf(report, "Chrome trace (%d events) written to %s\n", len(events), *traceOut)
		}
		if err != nil {
			return fmt.Errorf("writing Chrome trace: %w", err)
		}
	}

	fmt.Fprintf(report, "%s: input=%.0f GB split=%.0f MB nodes=%d device=%s input-src=%s store=%s policy=%s cad=%v\n",
		res.Name, *data/1e9, *split/1e6, *nodes, *device, res.Input, res.Store, *policy, *cad)
	fmt.Fprintf(report, "job time: %.2f s\n", res.JobTime)
	fmt.Fprintf(report, "dissection: %s\n", res.Dissection)
	if *verbose {
		for i, it := range res.Iters {
			fmt.Fprintf(report, "  iter %d: %s  (map tasks=%d local=%d remote=%d)\n",
				i, it.Dissection, it.MapTasks, it.LocalLaunches, it.RemoteLaunches)
		}
	}
	if s := res.StoringTasks; s.N > 0 {
		fmt.Fprintf(report, "storing tasks: n=%d min=%.3fs mean=%.3fs max=%.3fs spread=%.1fx\n",
			s.N, s.Min, s.Mean, s.Max, res.StoringTaskSpread)
	}
	if s := res.IntermediateSummary(); s.N > 0 {
		fmt.Fprintf(report, "intermediate per node: min=%.2f GB mean=%.2f GB max=%.2f GB\n",
			s.Min/1e9, s.Mean/1e9, s.Max/1e9)
	}
	return nil
}
