package chaostest

import (
	"slices"
	"strings"
	"testing"

	"hpcmr/fault"
	"hpcmr/trace"
)

// sweep runs seeds 1..n through b's judge and fails on any violation.
func sweep(t *testing.T, b Backend, n int64) {
	t.Helper()
	for seed := int64(1); seed <= n; seed++ {
		rep, err := RunSeed(b, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d %s", seed, rep.Summary())
		}
	}
}

// TestEngineSeedSweep is the in-repo slice of the CI engine sweep:
// seeded fault plans (count-triggered crashes, fetch loss, task
// failures, hangs, slow windows) against the real runtime with
// map-side combining on, judged by exact golden sums.
func TestEngineSeedSweep(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	sweep(t, Engine(0), seeds)
}

// TestEngineCountsNoTaskTwice sweeps 200 seeds on the engine. A lost
// executor's attempt finishes its body after its task was requeued;
// before task ends carried the dispatcher's verdict, a few seeds in 200
// traced both as successes and invariant 2 failed.
func TestEngineCountsNoTaskTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("200 engine trials")
	}
	sweep(t, Engine(0), 200)
}

// TestEngineCrashAtHalfMaps pins the deterministic headline trial: an
// executor crashes once half the map tasks have completed, lineage
// recovery re-runs the combiner for the lost partitions, and the sums
// still match the golden exactly.
func TestEngineCrashAtHalfMaps(t *testing.T) {
	rep := crashAtHalfMaps(t, 0)
	// Recovery re-put the lost partitions: cumulative volume exceeds
	// the fault-free minimum of one combined record per (part, key).
	if got := rep.Result.(*keyedSums).records; got <= ksKeys {
		t.Fatalf("shuffle records = %d, want > %d (re-puts counted)", got, ksKeys)
	}
}

// crashAtHalfMaps runs the engine under one crash of executor 1 once
// half the map tasks have completed, and checks the trial passed and
// the crash fired.
func crashAtHalfMaps(t *testing.T, budget int64) *Report {
	t.Helper()
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 1, AfterTasks: ksParts / 2},
	}}
	rep, err := RunPlan(Engine(budget), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("%s", rep.Summary())
	}
	if got := rep.Result.(*keyedSums).alive; got != ksExecutors-1 {
		t.Fatalf("AliveExecutors = %d, want %d (crash must have fired)", got, ksExecutors-1)
	}
	return rep
}

// TestEngineTinyBudgetSeedSweep reruns the seed sweep with a budget so
// small every map output spills: faults now land on partitions living
// in spill files, exercising eviction racing crash invalidation,
// restores of re-put generations, and lineage recovery of spilled
// partitions whose owner died — still judged by exact golden sums.
func TestEngineTinyBudgetSeedSweep(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	sweep(t, Engine(2048), seeds)
}

// TestEngineCrashAfterSpill pins the deterministic two-level-storage
// trial: under a 1-byte budget every completed map output spills
// immediately, then an executor crashes — so recovery must both discard
// that executor's spill files (its "local disk" died with it) and
// re-run lineage for them, while survivors' partitions restore from
// disk. The sums must still match the golden exactly.
func TestEngineCrashAfterSpill(t *testing.T) {
	s := crashAtHalfMaps(t, 1).Result.(*keyedSums)
	if s.spills == 0 || s.restores == 0 {
		t.Fatalf("1-byte budget moved no spill traffic: %d spills, %d restores", s.spills, s.restores)
	}
}

// TestEnginePlanValidation: a malformed plan is a setup error, not a
// violation.
func TestEnginePlanValidation(t *testing.T) {
	bad := fault.Plan{Events: []fault.Event{{Kind: "nonsense"}}}
	if _, err := RunPlan(Engine(0), bad); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

// TestDistSeedSweep runs 25 generated seeds on an in-process dist
// cluster, unbounded and under a 2 KiB budget on every executor.
func TestDistSeedSweep(t *testing.T) {
	for _, budget := range []int64{0, 2048} {
		sweep(t, Dist(budget), 25)
	}
}

// corrupting wraps a backend so that every run whose plan holds ev
// reports a wrong result.
type corrupting struct {
	Backend
	ev fault.Event
}

func (c corrupting) Run(plan fault.Plan) (Result, *trace.Tracer, error) {
	res, tr, err := c.Backend.Run(plan)
	if err == nil && slices.Contains(plan.Events, c.ev) {
		res = corrupted{res}
	}
	return res, tr, err
}

type corrupted struct{ Result }

func (c corrupted) Diff(golden Result) []string {
	return append(c.Result.Diff(golden), "corrupted result")
}

// TestShrinkIsolatesTheFaultyEvent: on every backend, a generated plan
// whose one event corrupts the result shrinks to exactly that event.
func TestShrinkIsolatesTheFaultyEvent(t *testing.T) {
	for name, b := range map[string]Backend{
		"sim": Sim(Config{}), "engine": Engine(0), "dist": Dist(0),
	} {
		t.Run(name, func(t *testing.T) {
			plan := b.Plan(3)
			if len(plan.Events) < 3 {
				t.Fatalf("seed 3 drew %d events; the test needs a plan to shrink", len(plan.Events))
			}
			ev := plan.Events[len(plan.Events)/2]
			bad := corrupting{b, ev}
			rep, err := RunPlan(bad, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Failed() || !strings.Contains(rep.Summary(), "corrupted result") {
				t.Fatalf("the corrupting event went unnoticed: %s", rep.Summary())
			}
			min, err := Shrink(bad, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(min.Events, []fault.Event{ev}) {
				t.Fatalf("shrunk to %v, want exactly %v", min.Events, ev)
			}
		})
	}
}
