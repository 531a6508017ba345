// Command mrchaos runs seeded chaos trials: each trial generates a
// deterministic fault plan from a seed, replays it on a fresh cluster of
// the chosen backend, and judges the job against a fault-free run of the
// same job on the same backend (result equivalence, no task counted
// twice, no counted work on dead nodes, metrics balance, ELB starvation
// freedom).
//
//	go run ./cmd/mrchaos -seed 42            # one simulator trial
//	go run ./cmd/mrchaos -seed 1 -runs 100   # sweep seeds 1..100
//	go run ./cmd/mrchaos -seed 7 -out t.json   # also dump the Chrome trace
//	go run ./cmd/mrchaos -backend engine -seed 1 -runs 25  # real runtime
//	go run ./cmd/mrchaos -backend dist -seed 1 -runs 25 -budget 2048
//
// -backend sim (the default) runs a GroupBy job on the simulator, shaped
// by -nodes, -cores, -tasks and -policy. -backend engine runs a keyed-sum
// job with map-side combining through the engine runtime, and -backend
// dist the same job on an in-process dist cluster over loopback TCP;
// both are also judged against analytically computed sums (the sharpest
// detector for duplicated or lost combined chunks under lineage
// recovery), and -budget bounds their resident memory.
//
// A failing seed reproduces from the seed alone; its plan is shrunk to
// a minimal failing event set and printed as JSON. Exit status is 1
// when any trial fails.
package main

import (
	"flag"
	"fmt"
	"os"

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
	out := flag.String("out", "", "write the last trial's Chrome trace_event JSON to this file")
	verbose := flag.Bool("v", false, "print every trial, not only failures")
	backend := flag.String("backend", "sim", "sim|engine|dist: the simulator, the engine runtime, or an in-process dist cluster")
	budget := flag.Int64("budget", 0, "engine and dist: resident memory budget in bytes; map outputs spill above it (0 = unbounded)")
	flag.Parse()

	var b chaostest.Backend
	switch *backend {
	case "sim":
		b = chaostest.Sim(chaostest.Config{
			Nodes:        *nodes,
			CoresPerNode: *cores,
			Tasks:        *tasks,
			Policy:       sim.Policy(*policy),
		})
	case "engine":
		b = chaostest.Engine(*budget)
	case "dist":
		b = chaostest.Dist(*budget)
	default:
		fmt.Fprintf(os.Stderr, "mrchaos: unknown backend %q (want sim, engine or dist)\n", *backend)
		os.Exit(2)
	}

	failures := 0
	var lastEvents []trace.Event
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		rep, err := chaostest.RunSeed(b, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: seed %d: %v\n", s, err)
			os.Exit(2)
		}
		lastEvents = rep.Events
		if rep.Failed() {
			failures++
			fmt.Printf("seed %d %s\n", s, rep.Summary())
			plan := rep.Plan
			if *shrink {
				if min, err := chaostest.Shrink(b, plan); err == nil {
					plan = min
				}
			}
			enc, err := plan.Encode()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrchaos: encode plan: %v\n", err)
				continue
			}
			fmt.Printf("  failing plan (%d events): %s\n", len(plan.Events), enc)
		} else if *verbose {
			fmt.Printf("seed %d %s\n", s, rep.Summary())
		}
	}
	if *out != "" && lastEvents != nil {
		if err := trace.WriteFile(*out, lastEvents); err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: %v\n", err)
			os.Exit(2)
		}
	}
	fmt.Printf("mrchaos: %d/%d trials passed\n", *runs-failures, *runs)
	if failures > 0 {
		os.Exit(1)
	}
}
