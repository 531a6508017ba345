package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hpcmr/internal/sched"
)

// recorder captures listener events.
type recorder struct {
	mu         sync.Mutex
	starts     []string
	ends       []StageMetrics
	taskStarts []TaskEvent
	tasks      []TaskEvent
	fetches    []FetchEvent
}

func (r *recorder) OnFetch(e FetchEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fetches = append(r.fetches, e)
}

func (r *recorder) OnDecision(sched.AuditEvent) {}

func (r *recorder) OnStageStart(name string, tasks int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, name)
}

func (r *recorder) OnStageEnd(m StageMetrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, m)
}

func (r *recorder) OnTaskStart(e TaskEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.taskStarts = append(r.taskStarts, e)
}

func (r *recorder) OnTaskEnd(e TaskEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tasks = append(r.tasks, e)
}

func TestListenerReceivesEvents(t *testing.T) {
	rt, _ := New(testCfg())
	rec := &recorder{}
	rt.AddListener(rec)
	tasks := make([]TaskSpec, 6)
	for i := range tasks {
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error {
			tc.AddShuffleBytes(10)
			return nil
		}}
	}
	if err := rt.RunStage("observed", tasks); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.starts) != 1 || rec.starts[0] != "observed" {
		t.Fatalf("starts = %v", rec.starts)
	}
	if len(rec.ends) != 1 || !rec.ends[0].Success || rec.ends[0].Tasks != 6 {
		t.Fatalf("ends = %+v", rec.ends)
	}
	if len(rec.tasks) != 6 {
		t.Fatalf("task events = %d, want 6", len(rec.tasks))
	}
	for _, e := range rec.tasks {
		if e.Stage != "observed" || e.ShuffleBytes != 10 || e.Failed {
			t.Fatalf("task event = %+v", e)
		}
		if e.Start.IsZero() || e.Duration < 0 {
			t.Fatalf("task event lacks a timeline: %+v", e)
		}
	}
	if len(rec.taskStarts) != 6 {
		t.Fatalf("task start events = %d, want 6", len(rec.taskStarts))
	}
	for _, e := range rec.taskStarts {
		if e.Stage != "observed" || e.Start.IsZero() || e.Duration != 0 {
			t.Fatalf("task start event = %+v", e)
		}
	}
}

func TestListenerSeesFailures(t *testing.T) {
	cfg := testCfg()
	cfg.MaxTaskFailures = 2
	rt, _ := New(cfg)
	rec := &recorder{}
	rt.AddListener(rec)
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error { return errors.New("nope") }}}
	if err := rt.RunStage("failing", tasks); err == nil {
		t.Fatal("expected failure")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.ends) != 1 || rec.ends[0].Success {
		t.Fatalf("ends = %+v", rec.ends)
	}
	failures := 0
	for _, e := range rec.tasks {
		if e.Failed {
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("failed task events = %d, want 2 attempts", failures)
	}
	if rec.tasks[1].Attempt != 1 {
		t.Fatalf("second attempt numbered %d", rec.tasks[1].Attempt)
	}
}

func TestFuncListener(t *testing.T) {
	rt, _ := New(testCfg())
	var stageEnds int
	rt.AddListener(FuncListener{
		StageEnd: func(m StageMetrics) { stageEnds++ },
		// nil StageStart/TaskEnd must be safe
	})
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error { return nil }}}
	if err := rt.RunStage("f", tasks); err != nil {
		t.Fatal(err)
	}
	if stageEnds != 1 {
		t.Fatalf("stageEnds = %d", stageEnds)
	}
}

func TestMultipleListeners(t *testing.T) {
	rt, _ := New(testCfg())
	a, b := &recorder{}, &recorder{}
	rt.AddListener(a)
	rt.AddListener(b)
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error { return nil }}}
	if err := rt.RunStage("multi", tasks); err != nil {
		t.Fatal(err)
	}
	if len(a.tasks) != 1 || len(b.tasks) != 1 {
		t.Fatal("both listeners should receive events")
	}
}

// TestLostAttemptEndIsNotCounted pins the verdict OnTaskEnd carries: an
// attempt whose executor is failed while its body runs ends after its
// requeued copy has won. Its end must say it was not counted, and the
// copy's must be the task's one counted success.
func TestLostAttemptEndIsNotCounted(t *testing.T) {
	rt, err := New(Config{Executors: 2, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Two ends are expected; room for more lets a surplus be counted
	// instead of blocking the stage.
	ends := make(chan TaskEvent, 4)
	rt.AddListener(FuncListener{TaskEnd: func(e TaskEvent) {
		select {
		case ends <- e:
		default:
		}
	}})
	started, release := make(chan int, 1), make(chan struct{})
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error {
		if tc.Attempt == 0 {
			started <- tc.Executor
			<-release
		}
		return nil
	}}}
	done := make(chan error, 1)
	go func() { done <- rt.RunStage("late", tasks) }()
	lost := <-started
	rt.FailExecutor(lost)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case e := <-ends:
			if lostEnd := e.Executor == lost; e.Counted == lostEnd || e.Failed {
				t.Errorf("attempt %d on executor %d (lost: %v): counted %v, failed %v; only the survivor's copy counts",
					e.Attempt, e.Executor, lostEnd, e.Counted, e.Failed)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d task ends after 5 s, want the requeued copy's and the late one's", i)
		}
	}
	if len(ends) != 0 {
		t.Fatalf("%d task ends more than the two attempts", len(ends))
	}
}
