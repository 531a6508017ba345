package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"hpcmr/dist"
)

// TestMain doubles as the executor re-exec target: the clusters the
// tests start spawn this test binary as `<binary> executor ...`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "executor" {
		os.Exit(executorMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to what the program
// emits: same workloads, same metric names, units, directions, bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the program", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s metric %s carries a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke runs every workload, plain and traced, on a real process
// cluster at smoke scale and asserts only facts that do not depend on
// the clock: every metric is emitted with a unit, every output
// verifies, spans nest (runWorkload fails otherwise), spill counts are
// positive under the budget and zero without one, and pagerank's
// gathers are co-located.
func TestSmoke(t *testing.T) {
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, options{seed: 1, smoke: true, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d failed of %d attempted: %s", w.name, traced, rep.Failed, rep.Attempted, rep.Err)
			}
			line := rep.contractLine()
			if !line.Correct || len(line.Metrics) != len(rep.defs()) {
				t.Errorf("%s traced=%v: contract line %+v", w.name, traced, line)
			}
			for _, d := range rep.defs() {
				if _, ok := rep.Metrics[d.name]; !ok || line.Metrics[d.name].Unit == "" {
					t.Errorf("%s traced=%v: metric %s not emitted with a unit", w.name, traced, d.name)
				}
			}
			if !traced {
				continue
			}
			ev := rep.Metrics["spill.evictions"]
			if (w.budget > 0) != (ev > 0) {
				t.Errorf("%s: budget %d but spill.evictions = %v", w.name, w.budget, ev)
			}
			if w.name == "iter-local" && rep.Metrics["dist.shuffle.local_fetch_ratio"] < 0.9 {
				t.Errorf("iter-local: local_fetch_ratio = %v, want >= 0.9", rep.Metrics["dist.shuffle.local_fetch_ratio"])
			}
		}
	}
}

func TestSeedDerivesInputs(t *testing.T) {
	for _, w := range workloads(false) {
		a, b := w.specFor(7), w.specFor(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave %+v and %+v", w.name, a, b)
		}
		moved := false
		for seed := int64(1); seed <= 10; seed++ {
			s := w.specFor(seed)
			if s.Records != w.spec.Records {
				moved = true
			}
			if d := float64(s.Records-w.spec.Records) / float64(w.spec.Records); d < -seedJitter-1e-3 || d > seedJitter {
				t.Errorf("%s seed %d: records moved by %v", w.name, seed, d)
			}
			if s.Job == "pagerank" && s.Records%int64(s.ReduceParts) != 0 {
				t.Errorf("%s seed %d: %d nodes do not divide into %d buckets", w.name, seed, s.Records, s.ReduceParts)
			}
		}
		if !moved {
			t.Errorf("%s: no seed in 1..10 moved Records", w.name)
		}
	}
}

func TestVerifierRejectsWrongBytes(t *testing.T) {
	spec := dist.JobSpec{Job: "keyed-sum", Records: 1000, Keys: 64}
	good := make([]dist.KV, 64)
	for k := range good {
		for i := int64(k); i < spec.Records; i += 64 {
			good[k].V += i
		}
		good[k].K = int64(k)
	}
	if err := checkKeyedSum(spec, good); err != nil {
		t.Fatalf("analytic sums rejected the brute-force sums: %v", err)
	}
	good[17].V++
	if err := checkKeyedSum(spec, good); err == nil {
		t.Error("a wrong sum verified")
	}
	if err := checkKeyedSum(spec, good[:63]); err == nil {
		t.Error("a missing key verified")
	}
}

func TestCheckNesting(t *testing.T) {
	spans := []span{
		{ID: "j1", Name: spanSubmit, Start: 0, End: 100},
		{ID: "j1/map", Parent: "j1", Name: spanStage, Start: 10, End: 90},
		{ID: "j1/map/p0", Parent: "j1/map", Name: spanTask, Start: 20, End: 80},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	spans[2].End = 95
	if err := checkNesting(spans); err == nil {
		t.Error("a task ending after its stage nested")
	}
	spans[2].End, spans[2].Parent = 80, "j1/reduce"
	if err := checkNesting(spans); err == nil {
		t.Error("a span with an unrecorded parent nested")
	}
}
