package chaostest

import (
	"bytes"
	"testing"

	"hpcmr/fault"
	"hpcmr/sim"
	"hpcmr/trace"
)

// TestSimTraceDeterminism is the ISSUE's acceptance criterion: the same
// fault-plan seed must produce byte-identical Chrome traces across two
// independent simulator runs.
func TestSimTraceDeterminism(t *testing.T) {
	cfg := Config{Nodes: 8, Tasks: 32}
	plan := fault.Generate(42, fault.GenConfig{Nodes: 8, Tasks: 32})
	a, err := Trace(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Trace(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traces differ: run A %d bytes, run B %d bytes", len(a), len(b))
	}
}

// TestCrashAtHalfMapsSimBackend is the simulator half of the acceptance
// criterion: a crash once half the map tasks completed must still finish
// the job with the golden task count and intermediate volume.
func TestCrashAtHalfMapsSimBackend(t *testing.T) {
	cfg := Config{Nodes: 8, Tasks: 32}
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 3, AfterTasks: 16},
	}}
	rep, err := RunPlan(Sim(cfg), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("invariants violated: %v", rep.Violations)
	}
	crashed := false
	for _, e := range rep.Events {
		if e.Cat == trace.CatFault && e.Name == "fault:crash" && e.Node == 3 {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("the planned crash never fired")
	}
	if got, want := rep.Result.(simResult).MapTasks, rep.Golden.(simResult).MapTasks; got != want {
		t.Fatalf("MapTasks = %d, golden %d", got, want)
	}
}

// TestRandomizedSeedsHoldInvariants sweeps a band of seeds; every
// generated plan must complete the job and hold all invariants.
func TestRandomizedSeedsHoldInvariants(t *testing.T) {
	cfg := Config{Nodes: 8, Tasks: 32}
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 99}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		rep, err := RunSeed(Sim(cfg), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			min, serr := Shrink(Sim(cfg), rep.Plan)
			if serr != nil {
				t.Fatalf("seed %d failed (%v) and shrink errored: %v", seed, rep.Violations, serr)
			}
			enc, _ := min.Encode()
			t.Fatalf("seed %d: %s\nshrunk plan: %s", seed, rep.Summary(), enc)
		}
	}
}

// TestTotalClusterLossIsAViolationNotAHang: a plan that kills every node
// must surface as a reported violation, not a wedged simulation or an
// invariant pass.
func TestTotalClusterLossIsAViolationNotAHang(t *testing.T) {
	cfg := Config{Nodes: 4, CoresPerNode: 2, Tasks: 16}
	var evs []fault.Event
	for n := 0; n < 4; n++ {
		evs = append(evs, fault.Event{Kind: fault.KindCrash, Node: n, AfterTasks: n + 1})
	}
	rep, err := RunPlan(Sim(cfg), fault.Plan{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("killing every node should violate the completion invariant")
	}
}

// TestShrinkMinimizes: pad a genuinely failing plan with harmless slow
// windows; Shrink must strip the padding and keep a failing core.
func TestShrinkMinimizes(t *testing.T) {
	cfg := Config{Nodes: 4, CoresPerNode: 2, Tasks: 16}
	evs := []fault.Event{
		{Kind: fault.KindSlow, Node: 0, At: 0, Duration: 1, Factor: 1.5},
		{Kind: fault.KindSlow, Node: 1, At: 0, Duration: 1, Factor: 1.5},
	}
	for n := 0; n < 4; n++ {
		evs = append(evs, fault.Event{Kind: fault.KindCrash, Node: n, AfterTasks: n + 1})
	}
	rep, err := RunPlan(Sim(cfg), fault.Plan{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("setup: the padded plan should fail")
	}
	min, err := Shrink(Sim(cfg), rep.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Events) >= len(evs) {
		t.Fatalf("shrink removed nothing: %d -> %d events", len(evs), len(min.Events))
	}
	for _, e := range min.Events {
		if e.Kind == fault.KindSlow {
			t.Fatalf("shrunk plan still carries a harmless slow window: %v", min.Events)
		}
	}
	minRep, err := RunPlan(Sim(cfg), min)
	if err != nil {
		t.Fatal(err)
	}
	if !minRep.Failed() {
		t.Fatal("shrunk plan no longer fails")
	}
}

// TestFaultEventsSurviveTraceRoundTrip: CatFault events written to a
// Chrome trace parse back with their category intact.
func TestFaultEventsSurviveTraceRoundTrip(t *testing.T) {
	cfg := Config{Nodes: 8, Tasks: 32}
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 2, AfterTasks: 8},
	}}
	rep, err := RunPlan(Sim(cfg), plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rep.Events); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range back {
		if e.Cat == trace.CatFault && e.Name == "fault:crash" {
			found = true
		}
	}
	if !found {
		t.Fatal("no CatFault crash event survived the round trip")
	}
}

// TestGoldenRunsAreFaultFree: without a plan the harness's two runs are
// identical jobs; the report must be clean and carry no fault events.
func TestGoldenRunsAreFaultFree(t *testing.T) {
	rep, err := RunPlan(Sim(Config{Nodes: 8, Tasks: 32}), fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("fault-free plan violated invariants: %v", rep.Violations)
	}
	if got, want := rep.Result.(simResult).JobTime, rep.Golden.(simResult).JobTime; got != want {
		t.Fatalf("empty plan changed the job time: %v vs %v", got, want)
	}
	for _, e := range rep.Events {
		if e.Cat == trace.CatFault {
			t.Fatalf("fault event in a fault-free run: %+v", e)
		}
	}
}

// TestELBPolicyIsDefault guards the config defaulting the starvation
// invariant depends on.
func TestELBPolicyIsDefault(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Policy != sim.ELB {
		t.Fatalf("default policy = %q, want ELB", cfg.Policy)
	}
	if n := Sim(Config{}).ELBNodes(); n != cfg.Nodes {
		t.Fatalf("default Tasks (%d) must enable the starvation check on all %d nodes, got %d",
			cfg.Tasks, cfg.Nodes, n)
	}
}
