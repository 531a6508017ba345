package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcmr/internal/sched"
)

// panicker is a listener that panics in every callback — the
// misbehaving-observer case the runtime must survive.
type panicker struct{ calls atomic.Int64 }

func (p *panicker) OnStageStart(name string, tasks int) { p.calls.Add(1); panic("stage start") }
func (p *panicker) OnStageEnd(m StageMetrics)           { p.calls.Add(1); panic("stage end") }
func (p *panicker) OnTaskStart(e TaskEvent)             { p.calls.Add(1); panic("task start") }
func (p *panicker) OnTaskEnd(e TaskEvent)               { p.calls.Add(1); panic("task end") }
func (p *panicker) OnFetch(e FetchEvent)                { p.calls.Add(1); panic("fetch") }
func (p *panicker) OnDecision(e sched.AuditEvent)       { p.calls.Add(1); panic("decision") }

// TestListenerPanicDoesNotWedgeRuntime enforces the Listener contract:
// a panicking listener is recovered, the stage still completes, and
// listeners registered after it still observe every event.
func TestListenerPanicDoesNotWedgeRuntime(t *testing.T) {
	rt, _ := New(testCfg())
	bad := &panicker{}
	good := &recorder{}
	rt.AddListener(bad)
	rt.AddListener(good)

	tasks := make([]TaskSpec, 8)
	for i := range tasks {
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error { return nil }}
	}
	done := make(chan error, 1)
	go func() { done <- rt.RunStage("panicky", tasks) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stage failed under a panicking listener: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runtime wedged by a panicking listener")
	}

	if bad.calls.Load() == 0 {
		t.Fatal("panicking listener never invoked")
	}
	good.mu.Lock()
	defer good.mu.Unlock()
	if len(good.tasks) != 8 || len(good.ends) != 1 {
		t.Fatalf("listener after the panicker missed events: tasks=%d ends=%d",
			len(good.tasks), len(good.ends))
	}
	if !good.ends[0].Success {
		t.Fatalf("stage reported failure: %+v", good.ends[0])
	}
}

// TestAddListenerDuringStage races registration against an in-flight
// stage: every AddListener must be safe mid-stage (checked by the race
// detector), and listeners registered before the stage's final task
// barrier must see a consistent suffix of events without wedging the
// dispatcher.
func TestAddListenerDuringStage(t *testing.T) {
	cfg := testCfg()
	cfg.Executors = 4
	cfg.CoresPerExecutor = 2
	rt, _ := New(cfg)

	release := make(chan struct{})
	var began atomic.Int64
	tasks := make([]TaskSpec, 32)
	for i := range tasks {
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error {
			began.Add(1)
			<-release
			return nil
		}}
	}

	done := make(chan error, 1)
	go func() { done <- rt.RunStage("raced", tasks) }()
	// Wait until the stage is genuinely in flight.
	for began.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	const joiners = 8
	recs := make([]*recorder, joiners)
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		i := i
		recs[i] = &recorder{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.AddListener(recs[i])
		}()
	}
	wg.Wait()
	close(release)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Every mid-stage joiner observes the stage end, and any task events
	// it saw are from the live stage.
	for i, r := range recs {
		r.mu.Lock()
		if len(r.ends) != 1 {
			t.Fatalf("joiner %d: stage ends = %d, want 1", i, len(r.ends))
		}
		for _, e := range r.tasks {
			if e.Stage != "raced" {
				t.Fatalf("joiner %d saw stray event %+v", i, e)
			}
		}
		r.mu.Unlock()
	}
}
