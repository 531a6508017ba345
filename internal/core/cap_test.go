package core

import (
	"slices"
	"sync"
	"testing"

	"hpcmr/engine"
	"hpcmr/fault"
	"hpcmr/internal/cluster"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/trace"
)

// TestInjectedFailureCap: a plan that fails ten attempts on the only
// node, against a budget of four failed attempts per task, costs every
// task exactly three injected failures on both backends, and the stage
// completes with each body run once.
func TestInjectedFailureCap(t *testing.T) {
	const tasks = 3
	plan := fault.Plan{Events: []fault.Event{{Kind: fault.KindTaskFail, Node: 0, Count: 10}}}
	want := []int{3, 3, 3}
	infos := make([]sched.TaskInfo, tasks)
	for i := range infos {
		infos[i].ID = i
	}

	t.Run("simulator", func(t *testing.T) {
		cfg := cluster.DefaultConfig(1)
		cfg.CoresPerNode = 1
		e := NewEngine(cluster.New(cfg), nil, nil)
		e.Faults = fault.NewInjector(plan)
		e.Tracer = trace.New(e.C.Sim.Now)
		runs := make([]int, tasks)
		finished := false
		runStage(e, "cap", sched.NewFIFO(), infos, func(id, _ int, _ float64, done func(sched.TaskStats)) {
			runs[id]++
			done(sched.TaskStats{Duration: 1})
		}, func(*metrics.Timeline, int, int) { finished = true })
		e.C.Sim.Run()
		fails := make([]int, tasks)
		for _, ev := range e.Tracer.Events() {
			if ev.Name == "fault:task-fail" {
				fails[int(ev.Bytes)]++
			}
		}
		if !finished || !slices.Equal(fails, want) || !slices.Equal(runs, []int{1, 1, 1}) {
			t.Fatalf("finished %v, injected failures per task %v (want %v), bodies run %v", finished, fails, want, runs)
		}
	})

	t.Run("engine", func(t *testing.T) {
		var mu sync.Mutex
		fails, runs := make([]int, tasks), make([]int, tasks)
		rt, err := engine.New(engine.Config{
			Executors: 1, CoresPerExecutor: 1, MaxTaskFailures: sched.DefaultMaxFailures,
			Faults: fault.NewInjector(plan),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rt.AddListener(engine.FuncListener{Decision: func(ev sched.AuditEvent) {
			if ev.Kind == "task-fail" {
				mu.Lock()
				fails[int(ev.Value)]++
				mu.Unlock()
			}
		}})
		specs := make([]engine.TaskSpec, tasks)
		for i := range specs {
			specs[i].Run = func(tc *engine.TaskContext) error {
				mu.Lock()
				runs[tc.TaskID]++
				mu.Unlock()
				return nil
			}
		}
		err = rt.RunStage("cap", specs)
		mu.Lock()
		defer mu.Unlock()
		if err != nil || !slices.Equal(fails, want) || !slices.Equal(runs, []int{1, 1, 1}) {
			t.Fatalf("stage error %v, injected failures per task %v (want %v), bodies run %v", err, fails, want, runs)
		}
	})
}
