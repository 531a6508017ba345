// Command mrchaos runs seeded chaos trials against the simulator: each
// trial generates a deterministic fault plan from a seed, replays it on
// a fresh simulated cluster, and checks the job against a fault-free
// golden run (result equivalence, no duplicate completions, no work on
// dead nodes, metrics balance, ELB starvation freedom).
//
//	go run ./cmd/mrchaos -seed 42            # one trial
//	go run ./cmd/mrchaos -seed 1 -runs 100   # sweep seeds 1..100
//	go run ./cmd/mrchaos -seed 7 -out t.jsonl  # also dump the trace
//	go run ./cmd/mrchaos -engine -seed 1 -runs 25  # real-runtime trials
//
// With -engine, each trial replays its plan against the real engine
// runtime instead of the simulator: a keyed-sum job with map-side
// combining enabled, judged against analytically computed golden sums
// (the sharpest detector for duplicated or lost combined chunks under
// lineage recovery). Engine trials have no trace dump or shrinker.
//
// A failing seed reproduces from the seed alone; its plan is shrunk to
// a minimal failing event set and printed as JSON. Exit status is 1
// when any trial fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcmr/fault"
	"hpcmr/fault/chaostest"
	"hpcmr/sim"
	"hpcmr/trace"
)

func main() {
	seed := flag.Int64("seed", 1, "first fault-plan seed")
	runs := flag.Int("runs", 1, "number of consecutive seeds to try")
	nodes := flag.Int("nodes", 8, "simulated cluster size")
	cores := flag.Int("cores", 4, "cores per node")
	tasks := flag.Int("tasks", 32, "map tasks per job")
	policy := flag.String("policy", "elb", "map policy: fifo|locality|delay|elb")
	shrink := flag.Bool("shrink", true, "minimize failing plans before reporting")
	out := flag.String("out", "", "write the last trial's trace as JSONL to this file")
	verbose := flag.Bool("v", false, "print every trial, not only failures")
	engineTrials := flag.Bool("engine", false, "run trials against the real engine runtime (combiners on) instead of the simulator")
	budget := flag.Int64("budget", 0, "engine trials: resident memory budget in bytes; map outputs spill above it (0 = unbounded)")
	flag.Parse()

	if *engineTrials {
		runEngineSweep(*seed, *runs, *budget, *verbose)
		return
	}

	cfg := chaostest.Config{
		Nodes:        *nodes,
		CoresPerNode: *cores,
		Tasks:        *tasks,
		Policy:       sim.Policy(*policy),
	}

	failures := 0
	var lastEvents []trace.Event
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		rep, err := chaostest.RunSeed(cfg, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: seed %d: %v\n", s, err)
			os.Exit(2)
		}
		lastEvents = rep.Events
		if rep.Failed() {
			failures++
			fmt.Printf("seed %d %s\n", s, rep.Summary())
			reportPlan(cfg, rep.Plan, *shrink)
		} else if *verbose {
			fmt.Printf("seed %d %s\n", s, rep.Summary())
		}
	}
	if *out != "" && lastEvents != nil {
		if err := trace.WriteFile(*out, lastEvents, trace.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: %v\n", err)
			os.Exit(2)
		}
	}
	fmt.Printf("mrchaos: %d/%d trials passed\n", *runs-failures, *runs)
	if failures > 0 {
		os.Exit(1)
	}
}

// runEngineSweep runs consecutive seeds against the real runtime and
// exits non-zero on any violation. A non-zero budget routes every trial
// through the spill path so faults land on disk-resident partitions.
func runEngineSweep(seed int64, runs int, budget int64, verbose bool) {
	failures := 0
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		rep, err := chaostest.RunEngineSeed(chaostest.EngineConfig{MemoryBudget: budget}, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: seed %d: %v\n", s, err)
			os.Exit(2)
		}
		if rep.Failed() {
			failures++
			fmt.Printf("engine seed %d %s\n", s, rep.Summary())
			if enc, err := rep.Plan.Encode(); err == nil {
				fmt.Printf("  failing plan (%d events): %s\n", len(rep.Plan.Events), enc)
			}
		} else if verbose {
			fmt.Printf("engine seed %d %s\n", s, rep.Summary())
		}
	}
	fmt.Printf("mrchaos: %d/%d engine trials passed\n", runs-failures, runs)
	if failures > 0 {
		os.Exit(1)
	}
}

// reportPlan prints the failing plan, shrunk to a minimal event set
// when requested.
func reportPlan(cfg chaostest.Config, plan fault.Plan, shrink bool) {
	if shrink {
		min, err := chaostest.Shrink(cfg, plan)
		if err == nil {
			plan = min
		}
	}
	enc, err := plan.Encode()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrchaos: encode plan: %v\n", err)
		return
	}
	fmt.Printf("  failing plan (%d events): %s\n", len(plan.Events), enc)
}
