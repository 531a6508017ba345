package rdd

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hpcmr/engine"
	"hpcmr/fault"
	"hpcmr/internal/sched"
)

// wordCountPairs is the fault-free golden result the recovery tests
// compare against.
func wordCountGolden() map[string]int {
	words := []string{"a", "b", "a", "c", "b", "a", "d", "e", "a", "b", "c", "f"}
	golden := map[string]int{}
	for _, w := range words {
		golden[w]++
	}
	return golden
}

func runWordCount(t *testing.T, cfg engine.Config) (map[string]int, *Context) {
	t.Helper()
	c, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"a", "b", "a", "c", "b", "a", "d", "e", "a", "b", "c", "f"}
	pairs := Map(Parallelize(c, words, 6), func(w string) Pair[string, int] {
		return Pair[string, int]{Key: w, Value: 1}
	})
	counts, err := CollectAsMap(ReduceByKey(pairs, func(a, b int) int { return a + b }, 4))
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return counts, c
}

func assertGolden(t *testing.T, got map[string]int) {
	t.Helper()
	golden := wordCountGolden()
	if len(got) != len(golden) {
		t.Fatalf("result = %v, want %v", got, golden)
	}
	for k, v := range golden {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d (full: %v)", k, got[k], v, got)
		}
	}
}

// TestLineageRecoveryAfterExecutorLoss: materialize a shuffle, crash the
// executor owning part of its map output between the map and reduce
// stages, and check the reduce still produces the fault-free result by
// re-executing only the missing partitions through lineage.
func TestLineageRecoveryAfterExecutorLoss(t *testing.T) {
	var mu sync.Mutex
	var kinds []string
	cfg := engine.Config{
		Executors: 4, CoresPerExecutor: 2, MaxTaskFailures: 4,
	}
	c, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Runtime().AddListener(engine.FuncListener{Decision: func(e sched.AuditEvent) {
		if e.Policy == "fault" {
			mu.Lock()
			kinds = append(kinds, e.Kind)
			mu.Unlock()
		}
	}})

	var mapRuns int64
	words := []string{"a", "b", "a", "c", "b", "a", "d", "e", "a", "b", "c", "f"}
	pairs := Map(Parallelize(c, words, 6), func(w string) Pair[string, int] {
		atomic.AddInt64(&mapRuns, 1)
		return Pair[string, int]{Key: w, Value: 1}
	})
	reduced := ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)

	// First job materializes the shuffle.
	if _, err := reduced.Count(); err != nil {
		t.Fatal(err)
	}
	runsAfterMap := atomic.LoadInt64(&mapRuns)

	// Crash an executor: its map outputs are invalidated.
	lost := c.Runtime().FailExecutor(0)
	if len(lost) == 0 {
		t.Skip("executor 0 produced no map output this run; nothing to recover")
	}

	// Second job over the same shuffle must heal the holes via lineage
	// and still match the golden result.
	counts, err := CollectAsMap(reduced)
	if err != nil {
		t.Fatalf("job after executor loss: %v", err)
	}
	assertGolden(t, counts)

	recomputed := atomic.LoadInt64(&mapRuns) - runsAfterMap
	if recomputed == 0 {
		t.Fatal("no map partitions were re-executed")
	}
	if int(recomputed) > len(words) {
		t.Fatalf("recovery recomputed %d elements, more than the whole input (%d)", recomputed, len(words))
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, k := range kinds {
		if k == "lineage-recompute" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lineage-recompute audit event; got %v", kinds)
	}
}

// TestCrashAtHalfMapsMatchesGolden is the engine half of the ISSUE's
// acceptance criterion: a plan that crashes an executor once half the
// map tasks have completed must still complete the job with the
// fault-free result.
func TestCrashAtHalfMapsMatchesGolden(t *testing.T) {
	const mapTasks = 6
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 1, AfterTasks: mapTasks / 2},
	}}
	cfg := engine.Config{
		Executors: 4, CoresPerExecutor: 2, MaxTaskFailures: 4,
		Faults: fault.NewInjector(plan),
	}
	counts, c := runWordCount(t, cfg)
	defer c.Stop()
	assertGolden(t, counts)
	if alive := c.Runtime().AliveExecutors(); alive != 3 {
		t.Fatalf("AliveExecutors = %d, want 3 (crash must have fired)", alive)
	}
}

// TestJobSurvivesMixedFaultPlan piles transient faults (fetch loss,
// task failures, a hang, a slow window) on top of a count-triggered
// crash; the job result must still match the golden.
func TestJobSurvivesMixedFaultPlan(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindCrash, Node: 2, AfterTasks: 4},
		{Kind: fault.KindFetchLoss, Node: 0, Count: 2},
		{Kind: fault.KindTaskFail, Node: 1, Count: 2},
		{Kind: fault.KindHang, Node: 3, Duration: 0.01},
		{Kind: fault.KindSlow, Node: 0, At: 0, Duration: 5, Factor: 1.2},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Executors: 4, CoresPerExecutor: 2, MaxTaskFailures: 4,
		Faults: fault.NewInjector(plan),
	}
	counts, c := runWordCount(t, cfg)
	defer c.Stop()
	assertGolden(t, counts)
}

// TestRecoveryMultiStageChain: two chained shuffles; crashing after both
// materialized forces recovery to walk the chain (the reduce over
// shuffle B re-executes B's missing maps, which may in turn fetch from
// shuffle A).
func TestRecoveryMultiStageChain(t *testing.T) {
	c, err := NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2, MaxTaskFailures: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	words := []string{"a", "b", "a", "c", "b", "a", "d", "e", "a", "b", "c", "f"}
	pairs := Map(Parallelize(c, words, 6), func(w string) Pair[string, int] {
		return Pair[string, int]{Key: w, Value: 1}
	})
	counted := ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)
	// Second shuffle: group words by their count.
	byCount := GroupByKey(Map(counted, func(p Pair[string, int]) Pair[int, string] {
		return Pair[int, string]{Key: p.Value, Value: p.Key}
	}), 3)
	if _, err := byCount.Count(); err != nil {
		t.Fatal(err)
	}
	c.Runtime().FailExecutor(0)
	c.Runtime().FailExecutor(2)

	got, err := CollectAsMap(byCount)
	if err != nil {
		t.Fatalf("job after double executor loss: %v", err)
	}
	want := map[int][]string{4: {"a"}, 3: {"b"}, 2: {"c"}, 1: {"d", "e", "f"}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for k, ws := range want {
		g := append([]string(nil), got[k]...)
		sort.Strings(g)
		if len(g) != len(ws) {
			t.Fatalf("group %d = %v, want %v", k, g, ws)
		}
		for i := range ws {
			if g[i] != ws[i] {
				t.Fatalf("group %d = %v, want %v", k, g, ws)
			}
		}
	}
}
