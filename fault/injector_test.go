package fault

import (
	"errors"
	"testing"
)

func TestInjectorTimeCrash(t *testing.T) {
	in := NewInjector(Plan{Events: []Event{
		{Kind: KindCrash, Node: 2, At: 5},
		{Kind: KindCrash, Node: 4, At: 10},
	}})
	if early := in.TimeCrashes(4.9); len(early) != 0 {
		t.Fatalf("TimeCrashes(4.9) = %v, want none before the trigger", early)
	}
	newly := in.TimeCrashes(5)
	if len(newly) != 1 || newly[0] != 2 {
		t.Fatalf("TimeCrashes(5) = %v, want [2]", newly)
	}
	// Triggering is one-shot.
	if again := in.TimeCrashes(6); len(again) != 0 {
		t.Fatalf("repeat TimeCrashes = %v, want none", again)
	}
	if late := in.TimeCrashes(11); len(late) != 1 || late[0] != 4 {
		t.Fatalf("TimeCrashes(11) = %v, want [4]", late)
	}
}

func TestInjectorCountCrash(t *testing.T) {
	in := NewInjector(Plan{Events: []Event{{Kind: KindCrash, Node: 1, AfterTasks: 3}}})
	for i := 0; i < 2; i++ {
		if newly := in.TaskCompleted(0); len(newly) != 0 {
			t.Fatalf("crash after %d completions", i+1)
		}
	}
	newly := in.TaskCompleted(0)
	if len(newly) != 1 || newly[0] != 1 {
		t.Fatalf("TaskCompleted #3 = %v, want [1]", newly)
	}
	// Triggering is one-shot.
	if again := in.TaskCompleted(0); len(again) != 0 {
		t.Fatalf("TaskCompleted #4 = %v, want none", again)
	}
}

func TestInjectorSlowFactor(t *testing.T) {
	in := NewInjector(Plan{Events: []Event{
		{Kind: KindSlow, Node: 0, At: 2, Duration: 4, Factor: 3},
		{Kind: KindSlow, Node: 0, At: 4, Duration: 4, Factor: 2},
	}})
	if f := in.SlowFactor(0, 1); f != 1 {
		t.Fatalf("factor before window = %v", f)
	}
	if f := in.SlowFactor(0, 3); f != 3 {
		t.Fatalf("factor in first window = %v", f)
	}
	if f := in.SlowFactor(0, 5); f != 6 {
		t.Fatalf("overlapping windows compound: got %v, want 6", f)
	}
	if f := in.SlowFactor(1, 3); f != 1 {
		t.Fatalf("other node degraded: %v", f)
	}
	if f := in.SlowFactor(0, 8.1); f != 1 {
		t.Fatalf("factor after windows = %v", f)
	}
}

func TestInjectorBudgets(t *testing.T) {
	in := NewInjector(Plan{Events: []Event{
		{Kind: KindTaskFail, Node: 0, Count: 2},
		{Kind: KindFetchLoss, Node: 1, Count: 1},
		{Kind: KindHang, Node: 2, Duration: 0.5, Count: 1},
	}})
	var injected *InjectedError
	if err := in.TaskFailure(0, 7, 0); !errors.As(err, &injected) || injected.Node != 0 {
		t.Fatalf("first TaskFailure = %v", err)
	}
	if err := in.TaskFailure(0, 8, 0); err == nil {
		t.Fatal("second TaskFailure should still fire (count=2)")
	}
	if err := in.TaskFailure(0, 9, 0); err != nil {
		t.Fatalf("budget exhausted but got %v", err)
	}
	if err := in.FetchFailure(1, 0); err == nil {
		t.Fatal("FetchFailure should fire once")
	}
	if err := in.FetchFailure(1, 0); err != nil {
		t.Fatalf("fetch budget exhausted but got %v", err)
	}
	if d := in.HangDuration(2, 0); d != 0.5 {
		t.Fatalf("HangDuration = %v, want 0.5", d)
	}
	if d := in.HangDuration(2, 0); d != 0 {
		t.Fatalf("hang budget exhausted but got %v", d)
	}
}

func TestInjectorReset(t *testing.T) {
	in := NewInjector(Plan{Events: []Event{
		{Kind: KindCrash, Node: 0, AfterTasks: 2},
		{Kind: KindCrash, Node: 2, At: 1},
		{Kind: KindTaskFail, Node: 1, Count: 1},
	}})
	in.TaskCompleted(0)
	if newly := in.TaskCompleted(0); len(newly) != 1 || newly[0] != 0 {
		t.Fatalf("TaskCompleted #2 = %v, want [0]", newly)
	}
	if newly := in.TimeCrashes(1); len(newly) != 1 || newly[0] != 2 {
		t.Fatalf("TimeCrashes(1) = %v, want [2]", newly)
	}
	in.TaskFailure(1, 0, 0)
	in.Reset()
	// The completion count rewinds with the crashes: one completion no
	// longer reaches the trigger, the second fires it again.
	if newly := in.TaskCompleted(0); len(newly) != 0 {
		t.Fatalf("TaskCompleted #1 after Reset = %v, want none", newly)
	}
	if newly := in.TaskCompleted(0); len(newly) != 1 || newly[0] != 0 {
		t.Fatal("Reset did not rewind the count-triggered crash")
	}
	if newly := in.TimeCrashes(1); len(newly) != 1 || newly[0] != 2 {
		t.Fatal("Reset did not rewind the time-triggered crash")
	}
	if err := in.TaskFailure(1, 0, 0); err == nil {
		t.Fatal("Reset did not rewind budgets")
	}
}

// decisionLog drives a fixed query script against an injector and
// records every answer — the injector-level determinism contract.
func decisionLog(in *Injector) []any {
	var log []any
	for step := 0; step < 40; step++ {
		now := float64(step) * 0.5
		node := step % 5
		log = append(log, in.SlowFactor(node, now))
		log = append(log, in.HangDuration(node, now))
		log = append(log, in.TaskFailure(node, step, now) != nil)
		log = append(log, in.FetchFailure(node, now) != nil)
		log = append(log, in.TaskCompleted(now))
		log = append(log, in.TimeCrashes(now))
	}
	return log
}

func TestInjectorDeterministicReplay(t *testing.T) {
	plan := everyKindPlan(t, 123, GenConfig{Nodes: 5, Horizon: 20, Tasks: 30}, 16)
	a := decisionLog(NewInjector(plan))
	b := decisionLog(NewInjector(plan))
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		av, bv := a[i], b[i]
		if as, ok := av.([]int); ok {
			bs := bv.([]int)
			if len(as) != len(bs) {
				t.Fatalf("step %d: %v != %v", i, as, bs)
			}
			for j := range as {
				if as[j] != bs[j] {
					t.Fatalf("step %d: %v != %v", i, as, bs)
				}
			}
			continue
		}
		if av != bv {
			t.Fatalf("step %d: %v != %v", i, av, bv)
		}
	}
}
