package perf

import (
	"math"
	"strings"
	"testing"
)

func TestCoverageFromProfile(t *testing.T) {
	// 3 of 4 statements covered -> 75%.
	profile := `mode: set
a/a.go:1.1,2.2 2 1
a/a.go:3.1,4.2 1 0
b/b.go:1.1,9.9 1 5
`
	pct, err := CoverageFromProfile(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pct-75) > 1e-9 {
		t.Errorf("coverage = %g, want 75", pct)
	}
}

func TestCoverageFromProfileDeduplicatesBlocks(t *testing.T) {
	// A multi-package run repeats blocks once per test binary; a block
	// hit by any binary counts covered, and statements count once.
	// Here: 2-stmt block covered by the second entry only, 1-stmt block
	// never covered -> 2/3.
	profile := `mode: set
a/a.go:1.1,2.2 2 0
a/a.go:1.1,2.2 2 1
a/a.go:3.1,4.2 1 0
a/a.go:3.1,4.2 1 0
`
	pct, err := CoverageFromProfile(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pct-100.0*2/3) > 1e-9 {
		t.Errorf("coverage = %g, want %g", pct, 100.0*2/3)
	}
}

func TestCoverageFromProfileErrors(t *testing.T) {
	cases := map[string]string{
		"missing header": "a/a.go:1.1,2.2 2 1\n",
		"malformed line": "mode: set\nnot a profile line\n",
		"empty":          "mode: set\n",
		"bad count":      "mode: set\na/a.go:1.1,2.2 x 1\n",
	}
	for name, profile := range cases {
		if _, err := CoverageFromProfile(strings.NewReader(profile)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCoverage(t *testing.T) {
	if err := CheckCoverage(75, 70); err != nil {
		t.Errorf("75%% failed a 70%% floor: %v", err)
	}
	if err := CheckCoverage(69.9, 70); err == nil {
		t.Error("69.9% passed a 70% floor")
	}
}

// gateReport is a fixture mrperf report holding the four scenarios the
// kernel and trace-overhead gates read: brute 5x the incremental
// median, traced 3% over the untraced minimum.
func gateReport(t *testing.T) *Report {
	t.Helper()
	r := report(t, map[string][]float64{
		"kernel/churn-incremental": baseSamples,
		"kernel/churn-brute":       scaled(baseSamples, 5),
		"engine/many-short-tasks":  baseSamples,
		"trace/capture":            scaled(baseSamples, 1.03),
	})
	r.Scenario("kernel/churn-incremental").Extra = Extras{"peak_concurrent_flows": 4709}
	r.Scenario("trace/capture").Extra = Extras{"tasks": 1024, "events": 2060}
	return r
}

// without returns the fixture minus one scenario.
func without(r *Report, name string) *Report {
	out := *r
	out.Scenarios = nil
	for _, s := range r.Scenarios {
		if s.Name != name {
			out.Scenarios = append(out.Scenarios, s)
		}
	}
	return &out
}

func TestTraceOverheadGate(t *testing.T) {
	rep := gateReport(t)
	overhead, events, tasks, err := TraceOverhead(rep)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum over minimum, not median over median: 98e6*1.03 / 98e6.
	if math.Abs(overhead-0.03) > 1e-9 || events != 2060 || tasks != 1024 {
		t.Fatalf("got overhead %.4f, %d events, %d tasks; want 0.03, 2060, 1024", overhead, events, tasks)
	}
	if err := CheckTraceOverhead(overhead, events, tasks, 0.05); err != nil {
		t.Errorf("3%% overhead failed a 5%% budget: %v", err)
	}
	if err := CheckTraceOverhead(overhead, events, tasks, 0.02); err == nil {
		t.Error("3% overhead passed a 2% budget")
	}
	if err := CheckTraceOverhead(0.01, 100, 1024, 0.05); err == nil {
		t.Error("fewer events than tasks passed")
	}
	for _, name := range []string{"engine/many-short-tasks", "trace/capture"} {
		if _, _, _, err := TraceOverhead(without(rep, name)); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("report without %s: err = %v, want it named", name, err)
		}
	}
	rep.Scenario("trace/capture").Extra = Extras{"tasks": 1024}
	if _, _, _, err := TraceOverhead(rep); err == nil {
		t.Error("report without the events extra computed an overhead")
	}
}

func TestKernelSpeedupGate(t *testing.T) {
	rep := gateReport(t)
	speedup, peak, err := KernelSpeedup(rep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(speedup-5) > 1e-9 || peak != 4709 {
		t.Fatalf("got speedup %.3f, peak %d; want 5, 4709", speedup, peak)
	}
	if err := CheckKernel(speedup, peak, 3, 4000); err != nil {
		t.Errorf("healthy kernel failed: %v", err)
	}
	if err := CheckKernel(speedup, peak, 5.5, 4000); err == nil {
		t.Error("5x speedup passed a 5.5x margin")
	}
	if err := CheckKernel(speedup, 100, 3, 4000); err == nil {
		t.Error("under-scaled churn passed")
	}
	for _, name := range []string{"kernel/churn-brute", "kernel/churn-incremental"} {
		if _, _, err := KernelSpeedup(without(rep, name)); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("report without %s: err = %v, want it named", name, err)
		}
	}
	rep.Scenario("kernel/churn-incremental").Extra = nil
	if _, _, err := KernelSpeedup(rep); err == nil {
		t.Error("report without the peak extra computed a speedup")
	}
}
