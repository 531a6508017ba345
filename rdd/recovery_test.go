package rdd

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
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

// TestRecoveryMultiStageChain: two chained shuffles; crashing two
// executors after both ran leaves both incomplete, so the next job's
// walk re-executes, parents first, A's lost maps and then B's (which
// fetch from the repaired A) before its result stage.
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

// jobLog records the stages a context runs, as "name:tasks", how many
// task attempts failed and how many shuffle-locality prefer decisions
// were made.
type jobLog struct {
	mu     sync.Mutex
	stages []string
	failed int
	prefer int
}

func watchJobs(c *Context) *jobLog {
	l := &jobLog{}
	c.Runtime().AddListener(engine.FuncListener{
		StageStart: func(name string, tasks int) {
			l.mu.Lock()
			l.stages = append(l.stages, fmt.Sprintf("%s:%d", name, tasks))
			l.mu.Unlock()
		},
		TaskEnd: func(e engine.TaskEvent) {
			if e.Failed {
				l.mu.Lock()
				l.failed++
				l.mu.Unlock()
			}
		},
		Decision: func(e sched.AuditEvent) {
			if e.Policy == "locality" && e.Kind == "prefer" {
				l.mu.Lock()
				l.prefer++
				l.mu.Unlock()
			}
		},
	})
	return l
}

// mapStages lists the recorded shuffle map stages.
func (l *jobLog) mapStages() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, s := range l.stages {
		if strings.HasPrefix(s, "shufflemap-") {
			out = append(out, s)
		}
	}
	return out
}

func wordCountRDD(c *Context, parts int) *RDD[Pair[string, int]] {
	words := []string{"a", "b", "a", "c", "b", "a", "d", "e", "a", "b", "c", "f"}
	pairs := Map(Parallelize(c, words, 6), func(w string) Pair[string, int] {
		return Pair[string, int]{Key: w, Value: 1}
	})
	return ReduceByKey(pairs, func(a, b int) int { return a + b }, parts)
}

// TestLossBetweenJobsRerunsOnlyLostMaps: an executor lost between two
// jobs leaves the shuffle incomplete, so the second job's walk runs
// exactly the lost map partitions before its result stage, and none of
// its attempts fails on the missing output.
func TestLossBetweenJobsRerunsOnlyLostMaps(t *testing.T) {
	c, err := NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2, MaxTaskFailures: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	reduced := wordCountRDD(c, 4)
	if _, err := reduced.Count(); err != nil {
		t.Fatal(err)
	}
	id := reduced.n.deps[0].engineID
	lost := c.Runtime().FailExecutor(c.Runtime().Shuffle().Owners(id)[0])
	if len(lost) == 0 {
		t.Fatal("the owner of map partition 0 lost nothing")
	}

	log := watchJobs(c)
	counts, err := CollectAsMap(reduced)
	if err != nil {
		t.Fatalf("job after executor loss: %v", err)
	}
	assertGolden(t, counts)
	want := []string{fmt.Sprintf("shufflemap-%d-recovery:%d", id, len(lost)), "collectAsMap:4"}
	log.mu.Lock()
	defer log.mu.Unlock()
	if !reflect.DeepEqual(log.stages, want) || log.failed != 0 {
		t.Errorf("stages %v with %d failed attempts; want %v and none", log.stages, log.failed, want)
	}
}

// TestLossBehindCompleteShuffleRunsNoMaps: a complete shuffle is a
// boundary of the walk. A map output lost upstream of it is never read
// again, so the next job recomputes nothing and runs only its result
// stage.
func TestLossBehindCompleteShuffleRunsNoMaps(t *testing.T) {
	c, err := NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2, MaxTaskFailures: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	counted := wordCountRDD(c, 4)
	byCount := GroupByKey(Map(counted, func(p Pair[string, int]) Pair[int, string] {
		return Pair[int, string]{Key: p.Value, Value: p.Key}
	}), 3)
	if _, err := byCount.Count(); err != nil {
		t.Fatal(err)
	}
	upstream := counted.n.deps[0].engineID
	store := c.Runtime().Shuffle()
	if !store.InvalidatePart(upstream, 0, store.Owners(upstream)[0]) {
		t.Fatal("InvalidatePart dropped nothing")
	}

	log := watchJobs(c)
	got, err := CollectAsMap(byCount)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || len(got[1]) != 3 || len(got[4]) != 1 {
		t.Fatalf("groups = %v", got)
	}
	if maps := log.mapStages(); len(maps) != 0 {
		t.Errorf("map stages %v ran behind a complete shuffle", maps)
	}
}

// TestResultMissBoundIsJobWide: a result task that always reports a
// missing map output — one no repair can bring back — makes the walk
// plan again each time, finds nothing to rebuild, and fails the job
// after engine.MaxJobRecoveries repairs with an error that names the
// bound: the map stage once, the result stage MaxJobRecoveries+1 times.
func TestResultMissBoundIsJobWide(t *testing.T) {
	c, err := NewContext(engine.Config{Executors: 2, CoresPerExecutor: 1, MaxTaskFailures: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	reduced := wordCountRDD(c, 2)
	phantom := newNode(c, 2, []*node{reduced.n}, nil,
		func(int, *engine.TaskContext, func(any)) error {
			return &engine.MapOutputMissingError{Shuffle: 999, MapPart: 0}
		}, nil)

	log := watchJobs(c)
	err = phantom.runJob("phantom", func(int, []any) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "MaxJobRecoveries") {
		t.Fatalf("got %v, want an error naming engine.MaxJobRecoveries", err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	var maps, results int
	for _, s := range log.stages {
		switch {
		case strings.HasPrefix(s, "shufflemap-"):
			maps++
		case strings.HasPrefix(s, "phantom:"):
			results++
		}
	}
	if maps != 1 || results != engine.MaxJobRecoveries+1 {
		t.Errorf("stage runs: %d map, %d result; want 1 and %d (stages %v)", maps, results, engine.MaxJobRecoveries+1, log.stages)
	}
}

// TestFirstJobResultStagePrefersMapOwners: under shuffle locality the
// first job's result stage is placed by its shuffle's map outputs — one
// prefer decision per reduce partition — which holds only while the
// result tasks are built after the map stage has run.
func TestFirstJobResultStagePrefersMapOwners(t *testing.T) {
	c, err := NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2, Policy: engine.ShuffleLocality})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	log := watchJobs(c)
	keys := make([]int, 200)
	for i := range keys {
		keys[i] = i
	}
	pairs := Map(Parallelize(c, keys, 4), func(k int) Pair[int, int] { return Pair[int, int]{Key: k, Value: 1} })
	n, err := ReduceByKey(pairs, func(a, b int) int { return a + b }, 4).Count()
	if err != nil || n != int64(len(keys)) {
		t.Fatalf("count = %d, %v; want %d", n, err, len(keys))
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.prefer != 4 {
		t.Errorf("%d prefer decisions, want one per reduce partition (4)", log.prefer)
	}
}
