package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testCfg() Config {
	return Config{Executors: 4, CoresPerExecutor: 2, MaxTaskFailures: 3}
}

func TestRunStageExecutesAll(t *testing.T) {
	rt, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	var ran int64
	tasks := make([]TaskSpec, 20)
	for i := range tasks {
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error {
			atomic.AddInt64(&ran, 1)
			return nil
		}}
	}
	if err := rt.RunStage("s", tasks); err != nil {
		t.Fatal(err)
	}
	if ran != 20 {
		t.Fatalf("ran = %d, want 20", ran)
	}
}

func TestConcurrencyBounded(t *testing.T) {
	cfg := testCfg() // 8 slots
	rt, _ := New(cfg)
	var cur, max int64
	var mu sync.Mutex
	tasks := make([]TaskSpec, 40)
	done := make(chan struct{}, 40)
	for i := range tasks {
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error {
			mu.Lock()
			cur++
			if cur > max {
				max = cur
			}
			mu.Unlock()
			<-done
			mu.Lock()
			cur--
			mu.Unlock()
			return nil
		}}
	}
	go func() {
		for i := 0; i < 40; i++ {
			done <- struct{}{}
		}
	}()
	if err := rt.RunStage("s", tasks); err != nil {
		t.Fatal(err)
	}
	slots := int64(cfg.Executors * cfg.CoresPerExecutor)
	if max > slots {
		t.Fatalf("max concurrency %d exceeded %d slots", max, slots)
	}
}

func TestTaskRetrySucceeds(t *testing.T) {
	rt, _ := New(testCfg())
	var attempts int64
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error {
		if atomic.AddInt64(&attempts, 1) < 3 {
			return errors.New("transient")
		}
		return nil
	}}}
	if err := rt.RunStage("retry", tasks); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestTaskPanicRecovered(t *testing.T) {
	rt, _ := New(testCfg())
	var attempts int64
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error {
		if atomic.AddInt64(&attempts, 1) == 1 {
			panic("boom")
		}
		return nil
	}}}
	if err := rt.RunStage("panic", tasks); err != nil {
		t.Fatal(err)
	}
}

func TestStageFailsAfterMaxAttempts(t *testing.T) {
	rt, _ := New(testCfg())
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error {
		return errors.New("permanent")
	}}}
	err := rt.RunStage("fail", tasks)
	if err == nil {
		t.Fatal("expected stage failure")
	}
	if got := rt.Metrics().TaskFailures(); got != 3 {
		t.Fatalf("failures = %d, want 3 (MaxTaskFailures)", got)
	}
}

// TestMissingMapOutputEndsStage: a missing map output is not retried —
// every retry would fetch the same lost locations — so the stage fails
// on its first report once the attempts already in flight drain: at
// most one attempt per slot, not MaxTaskFailures per task, and the
// error still wraps the miss for the caller's lineage walk.
func TestMissingMapOutputEndsStage(t *testing.T) {
	cfg := Config{Executors: 2, CoresPerExecutor: 1, MaxTaskFailures: 4}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var attempts int64
	tasks := make([]TaskSpec, 6)
	for i := range tasks {
		tasks[i].Run = func(tc *TaskContext) error {
			atomic.AddInt64(&attempts, 1)
			return fmt.Errorf("gather: %w", &MapOutputMissingError{Shuffle: 7, MapPart: 1})
		}
	}
	err = rt.RunStage("lost-input", tasks)
	var miss *MapOutputMissingError
	if !errors.As(err, &miss) || miss.Shuffle != 7 || miss.MapPart != 1 {
		t.Fatalf("got %v, want the stage to fail with the miss", err)
	}
	slots := int64(cfg.Executors * cfg.CoresPerExecutor)
	if got := atomic.LoadInt64(&attempts); got < 1 || got > slots {
		t.Errorf("%d attempts, want 1..%d: one per task in flight", got, slots)
	}
	if got := rt.Metrics().TaskFailures(); got != atomic.LoadInt64(&attempts) {
		t.Errorf("%d failures counted, want every attempt (%d)", got, atomic.LoadInt64(&attempts))
	}
}

// TestOtherTasksDrainAfterFailure: a stage with a failing task returns
// that task's error, and only once every good attempt that started has
// finished. How many good tasks start is timing: a failed stage launches
// nothing new, and the bad task's retries take freed slots.
func TestOtherTasksDrainAfterFailure(t *testing.T) {
	rt, _ := New(testCfg())
	bad := errors.New("bad")
	var started, finished atomic.Int64
	tasks := make([]TaskSpec, 10)
	tasks[0] = TaskSpec{Run: func(tc *TaskContext) error { return bad }}
	for i := 1; i < 10; i++ {
		tasks[i] = TaskSpec{Run: func(tc *TaskContext) error {
			started.Add(1)
			time.Sleep(3 * time.Millisecond)
			finished.Add(1)
			return nil
		}}
	}
	if err := rt.RunStage("mixed", tasks); !errors.Is(err, bad) {
		t.Fatalf("got %v, want the failing task's error", err)
	}
	if s, f := started.Load(), finished.Load(); s == 0 || f != s {
		t.Fatalf("%d good attempts finished of %d started, want all of at least one", f, s)
	}
}

func TestEmptyStage(t *testing.T) {
	rt, _ := New(testCfg())
	if err := rt.RunStage("empty", nil); err != nil {
		t.Fatal(err)
	}
}

func TestClosedRuntimeRejects(t *testing.T) {
	rt, _ := New(testCfg())
	rt.Close()
	err := rt.RunStage("s", []TaskSpec{{Run: func(tc *TaskContext) error { return nil }}})
	if err == nil {
		t.Fatal("closed runtime should reject stages")
	}
}

func TestAttemptNumbering(t *testing.T) {
	rt, _ := New(testCfg())
	var seen []int
	var mu sync.Mutex
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error {
		mu.Lock()
		seen = append(seen, tc.Attempt)
		mu.Unlock()
		if tc.Attempt < 2 {
			return errors.New("again")
		}
		return nil
	}}}
	if err := rt.RunStage("attempts", tasks); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("attempts = %v, want [0 1 2]", seen)
	}
}

func TestPolicyKinds(t *testing.T) {
	for _, k := range []PolicyKind{FIFO, Locality, DelayScheduling, ELB, CADThrottled} {
		cfg := testCfg()
		cfg.Policy = k
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ran int64
		tasks := make([]TaskSpec, 16)
		for i := range tasks {
			pref := []int{i % cfg.Executors}
			tasks[i] = TaskSpec{Preferred: pref, Run: func(tc *TaskContext) error {
				atomic.AddInt64(&ran, 1)
				return nil
			}}
		}
		if err := rt.RunStage(k.String(), tasks); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if ran != 16 {
			t.Fatalf("%v: ran %d, want 16", k, ran)
		}
	}
}

func TestMetricsAccumulate(t *testing.T) {
	rt, _ := New(testCfg())
	tasks := []TaskSpec{{Run: func(tc *TaskContext) error {
		tc.AddShuffleBytes(128)
		return nil
	}}}
	if err := rt.RunStage("m", tasks); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.TasksRun() != 1 || m.ShuffleBytes() != 128 {
		t.Fatalf("metrics: %s", m)
	}
	if len(m.Stages()) != 1 || m.Stages()[0].Name != "m" {
		t.Fatalf("stages: %+v", m.Stages())
	}
}

func TestShuffleStoreRoundTrip(t *testing.T) {
	s := NewShuffleStore()
	id := s.Register(2, 3)
	if err := s.PutChunksFrom(id, 0, -1, []any{[]int{1}, []int{2}, []int{3}}); err != nil {
		t.Fatal(err)
	}
	if s.Complete(id) {
		t.Fatal("incomplete shuffle reported complete")
	}
	if err := s.PutChunksFrom(id, 1, -1, []any{[]int{4}, nil, []int{5, 6}}); err != nil {
		t.Fatal(err)
	}
	if !s.Complete(id) {
		t.Fatal("complete shuffle reported incomplete")
	}
	chunks, err := s.FetchChunks(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || chunks[0].([]int)[0] != 3 || chunks[1].([]int)[1] != 6 {
		t.Fatalf("FetchChunks = %v", chunks)
	}
	if ch, err := s.FetchChunk(id, 1, 2); err != nil || ch.([]int)[0] != 5 {
		t.Fatalf("FetchChunk = %v, %v", ch, err)
	}
}

// TestFetchChunksReturnsPutBucketsAsStored: a chunk comes back as the
// very slice that was put, and an empty bucket (nil) comes back nil, not
// as an empty slice, from both fetch paths.
func TestFetchChunksReturnsPutBucketsAsStored(t *testing.T) {
	s := NewShuffleStore()
	id := s.Register(1, 2)
	put := []int64{7, 8}
	if err := s.PutChunksFrom(id, 0, -1, []any{put, nil}); err != nil {
		t.Fatal(err)
	}
	chunks, err := s.FetchChunks(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := chunks[0].([]int64); !ok || len(got) != 2 || &got[0] != &put[0] {
		t.Fatalf("chunk = %#v, want the []int64 as stored", chunks[0])
	}
	chunks, err = s.FetchChunks(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chunks[0] != nil {
		t.Fatalf("empty bucket fetched as %#v, want nil", chunks[0])
	}
	if ch, err := s.FetchChunk(id, 0, 1); err != nil || ch != nil {
		t.Fatalf("FetchChunk of the empty bucket = %#v, %v; want nil", ch, err)
	}
}

func TestShuffleStoreErrors(t *testing.T) {
	s := NewShuffleStore()
	id := s.Register(2, 1)
	if err := s.PutChunksFrom(99, 0, -1, []any{nil}); err == nil {
		t.Fatal("unknown shuffle accepted")
	}
	if err := s.PutChunksFrom(id, 5, -1, []any{nil}); err == nil {
		t.Fatal("out-of-range map partition accepted")
	}
	if err := s.PutChunksFrom(id, 0, -1, []any{nil, nil}); err == nil {
		t.Fatal("wrong bucket count accepted")
	}
	if _, err := s.FetchChunks(99, 0); err == nil {
		t.Fatal("fetch of unknown shuffle succeeded")
	}
	if _, err := s.FetchChunk(id, 0, 1); err == nil {
		t.Fatal("fetch of an out-of-range reduce partition succeeded")
	}
	if err := s.PutChunksFrom(id, 0, -1, []any{[]int{1}}); err != nil {
		t.Fatal(err)
	}
	// Map partition 1 was never written: both fetch paths name it.
	var miss *MapOutputMissingError
	if _, err := s.FetchChunks(id, 0); !errors.As(err, &miss) || miss.MapPart != 1 {
		t.Fatalf("FetchChunks err = %v, want MapOutputMissingError for map part 1", err)
	}
	if _, err := s.FetchChunk(id, 1, 0); !errors.As(err, &miss) || miss.MapPart != 1 {
		t.Fatalf("FetchChunk err = %v, want MapOutputMissingError for map part 1", err)
	}
}

func TestShuffleStoreDrop(t *testing.T) {
	s := NewShuffleStore()
	id := s.Register(1, 1)
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Drop(id)
	if s.Len() != 0 {
		t.Fatalf("Len after Drop = %d", s.Len())
	}
}

// TestRegisterWithIDRefusesDropped: a late attempt writing a shuffle
// the driver has released must not bring it back — nothing would ever
// drop it again. Tombstones dropped out of order fold into the
// watermark once the gap below them closes.
func TestRegisterWithIDRefusesDropped(t *testing.T) {
	s := NewShuffleStore()
	for _, id := range []int{3, 1} {
		s.Drop(id)
	}
	for _, id := range []int{1, 3} {
		if err := s.RegisterWithID(id, 1, 1); err == nil {
			t.Fatalf("RegisterWithID(%d) after Drop succeeded", id)
		}
	}
	if err := s.RegisterWithID(2, 1, 1); err != nil {
		t.Fatalf("RegisterWithID(2), never dropped: %v", err)
	}
	s.Drop(2)
	if s.Len() != 0 || s.droppedThrough != 3 || len(s.dropped) != 0 {
		t.Fatalf("after dropping 1..3: Len %d, watermark %d, tombstones %v", s.Len(), s.droppedThrough, s.dropped)
	}
	if err := s.RegisterWithID(4, 1, 1); err != nil {
		t.Fatalf("RegisterWithID(4): %v", err)
	}
}

func TestManyStagesSequential(t *testing.T) {
	rt, _ := New(testCfg())
	for s := 0; s < 20; s++ {
		tasks := make([]TaskSpec, 8)
		for i := range tasks {
			tasks[i] = TaskSpec{Run: func(tc *TaskContext) error { return nil }}
		}
		if err := rt.RunStage(fmt.Sprintf("s%d", s), tasks); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rt.Metrics().Stages()); got != 20 {
		t.Fatalf("stages = %d, want 20", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Executors < 1 || c.CoresPerExecutor != 1 || c.MaxTaskFailures != 4 {
		t.Fatalf("defaults: %+v", c)
	}
}
