package perf

import (
	"encoding/json"
	"strings"
	"testing"
)

// report builds a minimal valid report from name -> five wall samples;
// every scenario allocates baseAllocs.
func report(t *testing.T, scens map[string][]float64) *Report {
	t.Helper()
	withAllocs := map[string][2][]float64{}
	for name, samples := range scens {
		withAllocs[name] = [2][]float64{samples, baseAllocs}
	}
	return reportWithAllocs(t, withAllocs)
}

func scaled(samples []float64, f float64) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v * f
	}
	return out
}

var baseSamples = []float64{100e6, 101e6, 99e6, 102e6, 98e6}

func TestCompareIdenticalRunsPass(t *testing.T) {
	base := report(t, map[string][]float64{"a": baseSamples, "b": scaled(baseSamples, 2)})
	cur := report(t, map[string][]float64{"a": baseSamples, "b": scaled(baseSamples, 2)})
	cmp := Compare(base, cur, Thresholds{})
	if cmp.Regressed() {
		t.Fatalf("identical runs regressed:\n%s", cmp.Table())
	}
	for _, v := range cmp.Verdicts {
		if v.Status != StatusOK {
			t.Errorf("%s status = %s, want ok", v.Name, v.Status)
		}
	}
}

func TestCompareInjectedSlowdownFails(t *testing.T) {
	// The acceptance scenario: a 2x slowdown on one scenario must trip
	// the gate (median delta +100% and Mann-Whitney significant).
	base := report(t, map[string][]float64{"a": baseSamples, "b": scaled(baseSamples, 3)})
	cur := report(t, map[string][]float64{"a": scaled(baseSamples, 2), "b": scaled(baseSamples, 3)})
	cmp := Compare(base, cur, Thresholds{})
	if !cmp.Regressed() {
		t.Fatalf("2x slowdown not flagged:\n%s", cmp.Table())
	}
	var va, vb *Verdict
	for i := range cmp.Verdicts {
		switch cmp.Verdicts[i].Name {
		case "a":
			va = &cmp.Verdicts[i]
		case "b":
			vb = &cmp.Verdicts[i]
		}
	}
	if va.Status != StatusRegression {
		t.Errorf("a status = %s, want regression", va.Status)
	}
	if va.Delta < 0.9 || va.Delta > 1.1 {
		t.Errorf("a delta = %g, want ~1.0", va.Delta)
	}
	if vb.Status != StatusOK {
		t.Errorf("unchanged b status = %s, want ok", vb.Status)
	}
	if !strings.Contains(cmp.Table(), "FAIL") {
		t.Errorf("table does not mark the failure:\n%s", cmp.Table())
	}
}

func TestCompareImprovementIsNotRegression(t *testing.T) {
	base := report(t, map[string][]float64{"a": baseSamples})
	cur := report(t, map[string][]float64{"a": scaled(baseSamples, 0.5)})
	cmp := Compare(base, cur, Thresholds{})
	if cmp.Regressed() {
		t.Fatalf("improvement regressed:\n%s", cmp.Table())
	}
	if cmp.Verdicts[0].Status != StatusImprovement {
		t.Errorf("status = %s, want improvement", cmp.Verdicts[0].Status)
	}
}

func TestCompareMissingScenarioFailsNewPasses(t *testing.T) {
	base := report(t, map[string][]float64{"a": baseSamples, "gone": baseSamples})
	cur := report(t, map[string][]float64{"a": baseSamples, "fresh": baseSamples})
	cmp := Compare(base, cur, Thresholds{})
	if !cmp.Regressed() {
		t.Fatal("vanished baseline scenario did not fail the gate")
	}
	status := map[string]string{}
	for _, v := range cmp.Verdicts {
		status[v.Name] = v.Status
	}
	if status["gone"] != StatusMissing {
		t.Errorf("gone status = %s, want missing", status["gone"])
	}
	if status["fresh"] != StatusNew {
		t.Errorf("fresh status = %s, want new", status["fresh"])
	}
}

func TestCompareThresholdSuppressesSmallShift(t *testing.T) {
	// A consistent but tiny (2%) shift is significant by rank test yet
	// below the median-delta threshold: must stay ok.
	base := report(t, map[string][]float64{"a": {100e6, 100.1e6, 100.2e6, 100.3e6, 100.4e6}})
	cur := report(t, map[string][]float64{"a": {102e6, 102.1e6, 102.2e6, 102.3e6, 102.4e6}})
	cmp := Compare(base, cur, Thresholds{MedianDelta: 0.10, Alpha: 0.05})
	if cmp.Regressed() {
		t.Fatalf("2%% shift tripped the 10%% gate:\n%s", cmp.Table())
	}
}

// reportWithAllocs builds a report whose scenarios carry alloc samples
// alongside wall samples.
func reportWithAllocs(t *testing.T, scens map[string][2][]float64) *Report {
	t.Helper()
	r := &Report{SchemaVersion: SchemaVersion, Env: Fingerprint(), Options: RunOptions{Reps: 5, Warmup: 1}}
	// Deterministic order irrelevant for compare; map range is fine.
	for name, s := range scens {
		r.Scenarios = append(r.Scenarios, ScenarioResult{
			Name: name, Reps: len(s[0]), Warmup: 1,
			SamplesNs: s[0], SamplesAllocs: s[1],
			Stats: Summarize(s[0]), AllocsPerOp: median(s[1]),
		})
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("fixture report invalid: %v", err)
	}
	return r
}

var baseAllocs = []float64{1000, 1010, 990, 1020, 980}

func TestCompareAllocRegressionFails(t *testing.T) {
	// Wall time unchanged, allocations doubled: the alloc dimension
	// alone must trip the gate.
	base := reportWithAllocs(t, map[string][2][]float64{"a": {baseSamples, baseAllocs}})
	cur := reportWithAllocs(t, map[string][2][]float64{"a": {baseSamples, scaled(baseAllocs, 2)}})
	cmp := Compare(base, cur, Thresholds{})
	if !cmp.Regressed() {
		t.Fatalf("2x allocation growth not flagged:\n%s", cmp.Table())
	}
	v := cmp.Verdicts[0]
	if v.Status != StatusRegression {
		t.Errorf("status = %s, want regression", v.Status)
	}
	if v.AllocDelta < 0.9 || v.AllocDelta > 1.1 {
		t.Errorf("alloc delta = %g, want ~1.0", v.AllocDelta)
	}
}

func TestCompareAllocImprovementReported(t *testing.T) {
	base := reportWithAllocs(t, map[string][2][]float64{"a": {baseSamples, scaled(baseAllocs, 4)}})
	cur := reportWithAllocs(t, map[string][2][]float64{"a": {baseSamples, baseAllocs}})
	cmp := Compare(base, cur, Thresholds{})
	if cmp.Regressed() {
		t.Fatalf("alloc improvement regressed:\n%s", cmp.Table())
	}
	if cmp.Verdicts[0].Status != StatusImprovement {
		t.Errorf("status = %s, want improvement", cmp.Verdicts[0].Status)
	}
}

// TestCommittedAllocGate mirrors TestCommittedBaselineGate for the
// allocation dimension: the committed BENCH_perf.json must carry alloc
// samples, pass against itself, and fail against an injected 2x
// allocation inflation with wall times untouched.
func TestCommittedAllocGate(t *testing.T) {
	base, err := LoadReport("../BENCH_perf.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	for _, s := range base.Scenarios {
		if len(s.SamplesAllocs) == 0 {
			t.Fatalf("committed baseline scenario %q lacks samples_allocs", s.Name)
		}
	}
	if cmp := Compare(base, base, Thresholds{}); cmp.Regressed() {
		t.Fatalf("baseline vs itself regressed:\n%s", cmp.Table())
	}

	bloated := *base
	bloated.Scenarios = append([]ScenarioResult(nil), base.Scenarios...)
	for i := range bloated.Scenarios {
		s := &bloated.Scenarios[i]
		s.SamplesAllocs = scaled(s.SamplesAllocs, 2)
		s.AllocsPerOp = median(s.SamplesAllocs)
	}
	cmp := Compare(base, &bloated, Thresholds{})
	if !cmp.Regressed() {
		t.Fatalf("2x allocation inflation over the committed baseline passed:\n%s", cmp.Table())
	}
	for _, v := range cmp.Verdicts {
		if v.Status != StatusRegression {
			t.Errorf("%s status = %s, want regression", v.Name, v.Status)
		}
	}
}

// TestCommittedBaselineGate exercises the committed BENCH_perf.json
// exactly the way CI does: compared against itself it passes, and
// with an injected 2x slowdown on every scenario it fails.
func TestCommittedBaselineGate(t *testing.T) {
	base, err := LoadReport("../BENCH_perf.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if len(base.Scenarios) < 6 {
		t.Fatalf("committed baseline has %d scenarios, want >= 6", len(base.Scenarios))
	}
	if cmp := Compare(base, base, Thresholds{}); cmp.Regressed() {
		t.Fatalf("baseline vs itself regressed:\n%s", cmp.Table())
	}

	slow := *base
	slow.Scenarios = append([]ScenarioResult(nil), base.Scenarios...)
	for i := range slow.Scenarios {
		s := &slow.Scenarios[i]
		s.SamplesNs = scaled(s.SamplesNs, 2)
		s.Stats = Summarize(s.SamplesNs)
	}
	cmp := Compare(base, &slow, Thresholds{})
	if !cmp.Regressed() {
		t.Fatalf("2x slowdown over the committed baseline passed:\n%s", cmp.Table())
	}
	for _, v := range cmp.Verdicts {
		if v.Status != StatusRegression {
			t.Errorf("%s status = %s, want regression", v.Name, v.Status)
		}
	}
}

// reportWithExtras builds a report whose scenarios carry Extras
// alongside wall samples.
func reportWithExtras(t *testing.T, scens map[string]Extras) *Report {
	t.Helper()
	r := &Report{SchemaVersion: SchemaVersion, Env: Fingerprint(), Options: RunOptions{Reps: 5, Warmup: 1}}
	for name, ex := range scens {
		r.Scenarios = append(r.Scenarios, ScenarioResult{
			Name: name, Reps: len(baseSamples), Warmup: 1,
			SamplesNs: baseSamples, SamplesAllocs: baseAllocs,
			Stats: Summarize(baseSamples), AllocsPerOp: median(baseAllocs), Extra: ex,
		})
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("fixture report invalid: %v", err)
	}
	return r
}

func TestCompareExtraRegressionFails(t *testing.T) {
	// Wall time identical, shuffle volume doubled: the extras dimension
	// alone must trip the gate — a combiner regression shows up here
	// long before it shows up in wall time on a small benchmark box.
	base := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 2048, "shuffle_bytes_moved": 32768}})
	cur := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 4096, "shuffle_bytes_moved": 32768}})
	cmp := Compare(base, cur, Thresholds{})
	if !cmp.Regressed() {
		t.Fatalf("2x shuffle-record growth not flagged:\n%s", cmp.Table())
	}
	v := cmp.Verdicts[0]
	if v.Status != StatusRegression {
		t.Errorf("status = %s, want regression", v.Status)
	}
	if len(v.Extras) != 2 {
		t.Fatalf("extras judged = %v, want both gated keys", v.Extras)
	}
	byKey := map[string]ExtraVerdict{}
	for _, ev := range v.Extras {
		byKey[ev.Key] = ev
	}
	if ev := byKey["shuffle_records_moved"]; ev.Status != StatusRegression || ev.Delta < 0.9 || ev.Delta > 1.1 {
		t.Errorf("records verdict = %+v, want regression at ~+100%%", ev)
	}
	if ev := byKey["shuffle_bytes_moved"]; ev.Status != StatusOK {
		t.Errorf("unchanged bytes verdict = %+v, want ok", ev)
	}
	if !strings.Contains(cmp.Table(), "shuffle_records_moved") {
		t.Errorf("table does not show the extra verdict:\n%s", cmp.Table())
	}
}

func TestCompareExtraImprovementReported(t *testing.T) {
	base := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 100000}})
	cur := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 2048}})
	cmp := Compare(base, cur, Thresholds{})
	if cmp.Regressed() {
		t.Fatalf("shuffle-volume improvement regressed:\n%s", cmp.Table())
	}
	if cmp.Verdicts[0].Status != StatusImprovement {
		t.Errorf("status = %s, want improvement", cmp.Verdicts[0].Status)
	}
}

func TestCompareExtraSkippedWhenAbsent(t *testing.T) {
	// Ungated keys and keys missing on either side are not judged: a
	// scenario that never reports shuffle volume (or a baseline written
	// before the extra existed) must not fail the gate.
	base := reportWithExtras(t, map[string]Extras{"a": {"trials": 25}})
	cur := reportWithExtras(t, map[string]Extras{"a": {"trials": 500, "shuffle_records_moved": 9999}})
	cmp := Compare(base, cur, Thresholds{})
	if cmp.Regressed() {
		t.Fatalf("absent/ungated extras tripped the gate:\n%s", cmp.Table())
	}
	if n := len(cmp.Verdicts[0].Extras); n != 0 {
		t.Errorf("%d extras judged, want 0", n)
	}
}

func TestCompareExtrasGateDisabled(t *testing.T) {
	// An explicit empty GatedExtras disables the dimension entirely.
	base := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 100}})
	cur := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 100000}})
	cmp := Compare(base, cur, Thresholds{GatedExtras: []string{}})
	if cmp.Regressed() {
		t.Fatalf("disabled extras gate still judged:\n%s", cmp.Table())
	}
}

func TestCompareExtraZeroBaselineStaysFinite(t *testing.T) {
	// A zero baseline is judged against max(base,1), so the delta (and
	// the JSON encoding of the comparison) stays finite.
	base := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 0}})
	cur := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 50}})
	cmp := Compare(base, cur, Thresholds{})
	ev := cmp.Verdicts[0].Extras[0]
	if ev.Delta != 50 || ev.Status != StatusRegression {
		t.Errorf("zero-baseline verdict = %+v, want finite delta 50 and regression", ev)
	}
	if _, err := json.Marshal(cmp); err != nil {
		t.Fatalf("comparison does not marshal: %v", err)
	}
}

func TestCompareDirectionAwareRatioExtra(t *testing.T) {
	// shuffle_local_fetch_ratio is higher-is-better: a drop past the
	// threshold fails the gate, growth is an improvement, and a
	// baseline recorded before the ratio existed is skipped entirely
	// (the same rule that protects pre-alloc-gate baselines).
	base := reportWithExtras(t, map[string]Extras{"a": {"shuffle_local_fetch_ratio": 0.99}})
	cur := reportWithExtras(t, map[string]Extras{"a": {"shuffle_local_fetch_ratio": 0.40}})
	cmp := Compare(base, cur, Thresholds{})
	if !cmp.Regressed() {
		t.Fatalf("locality-ratio collapse 0.99->0.40 not flagged:\n%s", cmp.Table())
	}
	if ev := cmp.Verdicts[0].Extras[0]; ev.Status != StatusRegression {
		t.Errorf("ratio drop verdict = %+v, want regression", ev)
	}

	// The opposite move is an improvement, not a regression.
	cmp = Compare(cur, base, Thresholds{})
	if cmp.Regressed() {
		t.Fatalf("locality-ratio gain regressed:\n%s", cmp.Table())
	}
	if ev := cmp.Verdicts[0].Extras[0]; ev.Status != StatusImprovement {
		t.Errorf("ratio gain verdict = %+v, want improvement", ev)
	}

	// Small wobble within the threshold is ok.
	wobble := reportWithExtras(t, map[string]Extras{"a": {"shuffle_local_fetch_ratio": 0.97}})
	cmp = Compare(base, wobble, Thresholds{})
	if cmp.Verdicts[0].Extras[0].Status != StatusOK {
		t.Errorf("2%% ratio wobble judged %s, want ok", cmp.Verdicts[0].Extras[0].Status)
	}
}

func TestCompareRatioExtraSkipsPreGateBaseline(t *testing.T) {
	// A baseline written before shuffle_local_fetch_ratio existed has
	// no value for the key; the current report's ratio must not be
	// judged against it, no matter how low it is.
	base := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 100}})
	cur := reportWithExtras(t, map[string]Extras{"a": {"shuffle_records_moved": 100, "shuffle_local_fetch_ratio": 0.05}})
	cmp := Compare(base, cur, Thresholds{})
	if cmp.Regressed() {
		t.Fatalf("pre-gate baseline tripped the ratio gate:\n%s", cmp.Table())
	}
	for _, ev := range cmp.Verdicts[0].Extras {
		if ev.Key == "shuffle_local_fetch_ratio" {
			t.Fatalf("ratio judged against a baseline that lacks it: %+v", ev)
		}
	}
}
