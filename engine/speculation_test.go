package engine

import (
	"sync/atomic"
	"testing"
	"time"
)

// specCfg builds a runtime of 8 slots.
func specCfg(on bool) Config {
	return Config{Executors: 4, CoresPerExecutor: 2, Speculation: on}
}

// stragglerStage builds 16 tasks where the first attempts of tasks
// 0..parked-1 hang far beyond the rest; a speculative copy returns
// quickly.
func stragglerStage(release chan struct{}, parked int) []TaskSpec {
	tasks := make([]TaskSpec, 16)
	first := make([]atomic.Int32, len(tasks))
	for i := range tasks {
		i := i
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error {
			if i < parked && first[i].Add(1) == 1 {
				// A straggling original: parks until released.
				<-release
				return nil
			}
			time.Sleep(2 * time.Millisecond)
			return nil
		}}
	}
	return tasks
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	rt, err := New(specCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	done := make(chan error, 1)
	go func() { done <- rt.RunStage("straggler", stragglerStage(release, 1)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage did not complete: speculation failed to rescue the straggler")
	}
	if rt.Metrics().Speculations() == 0 {
		t.Fatal("no speculative copies were launched")
	}
}

func TestNoSpeculationWhenDisabled(t *testing.T) {
	rt, err := New(specCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- rt.RunStage("straggler", stragglerStage(release, 1)) }()
	select {
	case <-done:
		t.Fatal("stage completed although the straggler was never released")
	case <-time.After(100 * time.Millisecond):
		// Still blocked, as expected without speculation.
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rt.Metrics().Speculations() != 0 {
		t.Fatal("speculative copies launched with speculation disabled")
	}
}

func TestDuplicateCompletionCountedOnce(t *testing.T) {
	rt, err := New(specCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	if err := rt.RunStage("dup", stragglerStage(release, 1)); err != nil {
		t.Fatal(err)
	}
	// Release the parked original after the stage completed; its late
	// result must be discarded without panicking or corrupting state.
	close(release)
	time.Sleep(20 * time.Millisecond)
	// Run another stage to confirm the runtime is still healthy.
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error { return nil }}}
	if err := rt.RunStage("after", tasks); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculationQuantileGate: speculation starts only once 75 % of a
// stage's tasks have completed. With five of sixteen originals parked,
// eleven can complete (under 75 %), so nothing is speculated and the
// stragglers block the stage.
func TestSpeculationQuantileGate(t *testing.T) {
	rt, err := New(specCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- rt.RunStage("gated", stragglerStage(release, 5)) }()
	select {
	case <-done:
		t.Fatal("stage completed but speculation should have been gated off")
	case <-time.After(150 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSpeculationDefaults: at exactly the 75 % quantile — four of
// sixteen originals parked, twelve completed — speculation starts and
// rescues every straggler.
func TestSpeculationDefaults(t *testing.T) {
	rt, err := New(specCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	done := make(chan error, 1)
	go func() { done <- rt.RunStage("at-quantile", stragglerStage(release, 4)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage did not complete: speculation failed to start at the quantile")
	}
	if n := rt.Metrics().Speculations(); n != 4 {
		t.Fatalf("speculations = %d, want 4 (one per straggler)", n)
	}
}
