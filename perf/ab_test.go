package perf

import (
	"testing"
)

// runAB runs an A/B pair of scenarios in one RunScenarios call, so the
// runner interleaves their repetitions, and logs the wall comparison.
// The wall numbers are logged, never asserted: tier-1 shares its CPUs
// with sibling test packages, and a significance test on wall time
// under that contention fails on some machine shapes and not others.
// The wall comparison is judged where it runs alone — both twins of
// each pair are in the CI mrperf suite behind `cigate perf`.
func runAB(t *testing.T, a, b string) (ra, rb *ScenarioResult) {
	t.Helper()
	scens, err := Select(a + "," + b)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScenarios(scens, RunOptions{Short: true, Reps: 9, Warmup: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb = rep.Scenario(a), rep.Scenario(b)
	t.Logf("wall (not asserted): %s median %.2fms vs %s %.2fms, Mann-Whitney p=%.4f",
		a, ra.Stats.MedianNs/1e6, b, rb.Stats.MedianNs/1e6, MannWhitneyU(ra.SamplesNs, rb.SamplesNs))
	return ra, rb
}

// TestMapSideCombineABGate is the acceptance A/B for map-side
// combining: the low-cardinality aggregation scenario run with the
// combiner enabled must move at least 5x fewer shuffle records, and
// fewer bytes, than the combine-disabled twin. With 100k records over
// 128 keys the combined path moves ~2k records where the disabled path
// moves all 100k, so the margin is decisive, not marginal.
func TestMapSideCombineABGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full A/B measurement in -short")
	}
	combined, disabled := runAB(t, "engine/agg-lowcard", "engine/agg-lowcard-nocombine")

	combRecs := combined.Extra["shuffle_records_moved"]
	plainRecs := disabled.Extra["shuffle_records_moved"]
	if combRecs <= 0 || plainRecs <= 0 {
		t.Fatalf("missing shuffle_records_moved: combined=%v disabled=%v",
			combined.Extra, disabled.Extra)
	}
	if plainRecs < 5*combRecs {
		t.Fatalf("shuffle reduction %.1fx, want >= 5x (combined %.0f vs disabled %.0f records)",
			plainRecs/combRecs, combRecs, plainRecs)
	}
	if cb, pb := combined.Extra["shuffle_bytes_moved"], disabled.Extra["shuffle_bytes_moved"]; cb >= pb {
		t.Fatalf("combined shuffle bytes %.0f not below disabled %.0f", cb, pb)
	}
}

// TestPagerankLocalityABGate is the acceptance A/B for shuffle-locality
// placement: the iterative pagerank scenario with placement on must
// move strictly fewer remote bytes than the locality-disabled twin,
// which pays gob encode/decode and loopback TCP for almost every
// gather, and must resolve most of its gather bytes through the
// co-located zero-copy path.
//
// Only the first of those is a fact of the code. The ratio depends on
// which executor slot frees first, so it moves with whatever else the
// machine is running: an idle host gives 0.95-0.97, sibling test
// packages competing for two CPUs have produced 0.88. Tier-1 therefore
// asserts a floor with real margin (0.75; placement that stopped
// working collapses toward 1/executors = 0.25). The 0.9 figure belongs
// to runs that have the machine to themselves: the CI perf job, where
// shuffle_local_fetch_ratio is a gated extra of this scenario against
// BENCH_perf.json, and e2ebench's iter-local workload.
func TestPagerankLocalityABGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full A/B measurement in -short")
	}
	local, remote := runAB(t, "engine/iterative-pagerank", "engine/iterative-pagerank-nolocality")

	ratio, ok := local.Extra["shuffle_local_fetch_ratio"]
	if !ok {
		t.Fatalf("locality scenario reported no shuffle_local_fetch_ratio: %v", local.Extra)
	}
	if ratio < 0.75 {
		t.Fatalf("local fetch ratio %.4f, want >= 0.75", ratio)
	}
	if lb, rb := local.Extra["remote_fetch_bytes"], remote.Extra["remote_fetch_bytes"]; lb >= rb {
		t.Fatalf("locality-on moved %.0f remote bytes, not below locality-off's %.0f", lb, rb)
	}
}
