package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Regression tests for the retry/speculation accounting audit. The old
// dispatcher conflated a task's launch-attempt index with its failure
// count and never dropped a failed attempt's running record, which
// produced two real bugs:
//
//  1. A speculated copy (launch index 1) failing ONCE under
//     MaxTaskFailures=2 satisfied attempt+1 >= MaxTaskFailures and
//     terminally failed the task while the healthy original was still
//     running — a stage that should succeed reported failure.
//  2. With fewer slots than tasks, a terminal failure stopped dispatch
//     but RunStage still waited for remaining == 0, so never-launched
//     tasks left the stage hung forever.
//
// The rewrite counts real failures per task (failures[]), tracks live
// attempts (liveOn), and exits a failed stage once in-flight work
// drains.

// withFastTasks appends four 2 ms tasks to a straggler: they complete
// on the second slot while the straggler holds the first, taking the
// stage past speculation's 75 % quantile and setting the median.
func withFastTasks(straggler TaskSpec) []TaskSpec {
	tasks := []TaskSpec{straggler}
	for i := 0; i < 4; i++ {
		tasks = append(tasks, TaskSpec{Run: func(tc *TaskContext) error { time.Sleep(2 * time.Millisecond); return nil }})
	}
	return tasks
}

// TestSpeculatedCopyFailureDoesNotKillTask: the original attempt is
// slow but succeeds; the speculative copy fails immediately. With
// MaxTaskFailures=2 the single copy failure must not terminally fail
// the task — the stage must succeed once the original finishes.
func TestSpeculatedCopyFailureDoesNotKillTask(t *testing.T) {
	cfg := Config{Executors: 2, CoresPerExecutor: 1, MaxTaskFailures: 2, Speculation: true}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var launches int64
	// The straggler: first launch is slow but succeeds; the speculative
	// second launch errors instantly.
	tasks := withFastTasks(TaskSpec{Run: func(tc *TaskContext) error {
		if atomic.AddInt64(&launches, 1) == 1 {
			time.Sleep(120 * time.Millisecond)
			return nil
		}
		return errors.New("speculated copy dies")
	}})
	if err := rt.RunStage("spec-fail", tasks); err != nil {
		t.Fatalf("stage failed though the original attempt succeeded: %v", err)
	}
	if atomic.LoadInt64(&launches) < 2 {
		t.Skip("speculation did not trigger on this run; nothing to regress")
	}
}

// TestFailedStageDrainsWithoutDeadlock: one slot, the first task
// terminally fails before the second is ever dispatched. RunStage must
// return the failure instead of waiting forever for remaining == 0.
func TestFailedStageDrainsWithoutDeadlock(t *testing.T) {
	rt, err := New(Config{Executors: 1, CoresPerExecutor: 1, MaxTaskFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []TaskSpec{
		{Run: func(tc *TaskContext) error { return errors.New("bad") }},
		{Run: func(tc *TaskContext) error { return nil }},
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- rt.RunStage("wedge", tasks) }()
	select {
	case err := <-doneCh:
		if err == nil {
			t.Fatal("expected stage failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStage deadlocked after terminal failure with undispatched tasks")
	}
}

// TestFailureBudgetIsPerRealFailure: a task that fails exactly
// MaxTaskFailures-1 times and then succeeds must not fail the stage,
// and the attempt numbering seen by the task must stay sequential.
func TestFailureBudgetIsPerRealFailure(t *testing.T) {
	rt, err := New(Config{Executors: 2, CoresPerExecutor: 2, MaxTaskFailures: 3})
	if err != nil {
		t.Fatal(err)
	}
	var attempts []int
	var n int64
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error {
		attempts = append(attempts, tc.Attempt)
		if atomic.AddInt64(&n, 1) <= 2 {
			return errors.New("transient")
		}
		return nil
	}}}
	if err := rt.RunStage("budget", tasks); err != nil {
		t.Fatalf("stage failed with budget left: %v", err)
	}
	if len(attempts) != 3 {
		t.Fatalf("attempts = %v, want 3 launches", attempts)
	}
	for i, a := range attempts {
		if a != i {
			t.Fatalf("attempt numbering = %v, want [0 1 2]", attempts)
		}
	}
	if got := rt.Metrics().TaskFailures(); got != 2 {
		t.Fatalf("TaskFailures = %d, want 2", got)
	}
}

// TestRequeueDefersToLiveSibling: when a failed attempt still has a
// live sibling (a speculated copy), the failure must not enqueue a
// third run — the sibling's own completion settles the task.
func TestRequeueDefersToLiveSibling(t *testing.T) {
	cfg := Config{Executors: 2, CoresPerExecutor: 1, MaxTaskFailures: 4, Speculation: true}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var launches int64
	tasks := withFastTasks(TaskSpec{Run: func(tc *TaskContext) error {
		if atomic.AddInt64(&launches, 1) == 1 {
			// Original straggles long enough for a copy to spawn (the
			// first scan is 50 ms in), then fails while the copy is
			// still running.
			time.Sleep(120 * time.Millisecond)
			return errors.New("original dies late")
		}
		time.Sleep(150 * time.Millisecond)
		return nil
	}})
	if err := rt.RunStage("sibling", tasks); err != nil {
		t.Fatalf("stage failed: %v", err)
	}
	if got := atomic.LoadInt64(&launches); got > 2 {
		t.Fatalf("straggler launched %d times; the failure requeued despite a live sibling", got)
	}
}
