package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	noop := func(Scale) (Extras, error) { return nil, nil }
	if err := Register(Scenario{Name: "", Run: noop}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Scenario{Name: "x/no-body"}); err == nil {
		t.Error("nil body accepted")
	}
	if err := Register(Scenario{Name: "kernel/churn-incremental", Run: noop}); err == nil {
		t.Error("duplicate of a registered scenario accepted")
	}
}

func TestRegistryWellFormed(t *testing.T) {
	all := Scenarios()
	if len(all) < 6 {
		t.Fatalf("registry has %d scenarios, want >= 6", len(all))
	}
	areas := map[string]bool{}
	for _, s := range all {
		if s.Desc == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
		area, _, ok := strings.Cut(s.Name, "/")
		if !ok {
			t.Errorf("scenario %q is not area/case shaped", s.Name)
		}
		areas[area] = true
	}
	// The tentpole contract: the registry spans kernel, engine, trace,
	// chaos, and end-to-end experiment scenarios.
	for _, want := range []string{"kernel", "engine", "trace", "chaos", "experiments"} {
		if !areas[want] {
			t.Errorf("registry covers no %q scenarios", want)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Scenarios()) {
		t.Fatalf("Select(all) = %d scenarios, err %v", len(all), err)
	}
	kern, err := Select("kernel/*")
	if err != nil || len(kern) != 2 {
		t.Fatalf("Select(kernel/*) = %d scenarios, err %v", len(kern), err)
	}
	one, err := Select("engine/shuffle-heavy")
	if err != nil || len(one) != 1 || one[0].Name != "engine/shuffle-heavy" {
		t.Fatalf("exact Select = %v, err %v", one, err)
	}
	// Duplicates collapse.
	dup, err := Select("kernel/*,kernel/churn-brute")
	if err != nil || len(dup) != 2 {
		t.Fatalf("dup Select = %d scenarios, err %v", len(dup), err)
	}
	if _, err := Select("no/such-scenario"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestRunScenariosReportShape(t *testing.T) {
	calls := 0
	scens := []Scenario{
		{Name: "t/busy", Desc: "spin briefly", Run: func(Scale) (Extras, error) {
			calls++
			deadline := time.Now().Add(200 * time.Microsecond)
			for time.Now().Before(deadline) {
			}
			return Extras{"k": 1}, nil
		}},
		{Name: "t/alloc", Desc: "allocate", Run: func(Scale) (Extras, error) {
			s := make([][]byte, 100)
			for i := range s {
				s[i] = make([]byte, 1024)
			}
			_ = s
			return nil, nil
		}},
	}
	rep, err := RunScenarios(scens, RunOptions{Short: true, Reps: 3, Warmup: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 { // 2 warmup + 3 measured
		t.Errorf("busy ran %d times, want 5", calls)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	busy := rep.Scenario("t/busy")
	if busy == nil || len(busy.SamplesNs) != 3 {
		t.Fatalf("busy result = %+v", busy)
	}
	if busy.Stats.MedianNs < 100e3 {
		t.Errorf("busy median = %g ns, want >= 100µs of spin", busy.Stats.MedianNs)
	}
	if busy.Extra["k"] != 1 {
		t.Errorf("extras not kept: %v", busy.Extra)
	}
	alloc := rep.Scenario("t/alloc")
	if alloc.AllocsPerOp < 100 {
		t.Errorf("alloc scenario allocs/op = %g, want >= 100", alloc.AllocsPerOp)
	}
	if rep.Env.GoVersion == "" || rep.Env.GOMAXPROCS == 0 {
		t.Errorf("env fingerprint incomplete: %+v", rep.Env)
	}
}

func TestRunScenariosPropagatesErrors(t *testing.T) {
	scens := []Scenario{{Name: "t/fail", Desc: "fail", Run: func(Scale) (Extras, error) {
		return nil, os.ErrInvalid
	}}}
	if _, err := RunScenarios(scens, RunOptions{Reps: 2}, nil); err == nil {
		t.Fatal("scenario error not propagated")
	}
	if _, err := RunScenarios(nil, RunOptions{}, nil); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestReportRoundTripAndValidation(t *testing.T) {
	rep := report(t, map[string][]float64{"a": baseSamples})
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario("a").Stats.MedianNs != rep.Scenario("a").Stats.MedianNs {
		t.Error("round trip changed the median")
	}

	// A scenario without one alloc sample per wall sample is invalid.
	short := *rep
	short.Scenarios = []ScenarioResult{rep.Scenarios[0]}
	short.Scenarios[0].SamplesAllocs = short.Scenarios[0].SamplesAllocs[1:]
	if err := short.Validate(); err == nil {
		t.Error("scenario with fewer alloc samples than wall samples accepted")
	}

	// Wrong schema version refuses to load.
	bad := *rep
	bad.SchemaVersion = SchemaVersion + 1
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Error("wrong schema version accepted")
	}
}

// TestShortSuiteSmoke runs one real cheap scenario end to end through
// the runner — the registry wiring, not the numbers, is under test.
func TestShortSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario body in -short")
	}
	scens, err := Select("chaos/recovery")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScenarios(scens, RunOptions{Short: true, Reps: 2, Warmup: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Scenario("chaos/recovery").Extra["trials"] != 1 {
		t.Errorf("extras = %v", rep.Scenario("chaos/recovery").Extra)
	}
}
