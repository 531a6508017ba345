package dist

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"hpcmr/engine"
)

// mapGauge counts gauge-map's Map calls in progress and the most there
// ever were at once.
var mapGauge struct {
	sync.Mutex
	running, peak int
}

// blockMap holds block-map's Map calls: each reports on started and
// returns once release is closed. Each test run sets fresh channels.
var blockMap struct {
	sync.Mutex
	started, release chan struct{}
}

func init() {
	empty := func(spec JobSpec) MapOutput { return MapOutput{Buckets: make([]any, spec.ReduceParts)} }
	noReduce := func(JobSpec, int, []any) ([]byte, error) { return nil, nil }
	noMerge := func(JobSpec, [][]byte) ([]byte, error) { return nil, nil }
	// gauge-map: map tasks long enough to overlap, recording how many
	// run at once.
	RegisterJob(Job{
		Name: "gauge-map",
		Map: func(spec JobSpec, part int) (MapOutput, error) {
			mapGauge.Lock()
			mapGauge.running++
			mapGauge.peak = max(mapGauge.peak, mapGauge.running)
			mapGauge.Unlock()
			time.Sleep(2 * time.Millisecond)
			mapGauge.Lock()
			mapGauge.running--
			mapGauge.Unlock()
			return empty(spec), nil
		},
		Reduce: noReduce,
		Merge:  noMerge,
	})
	// block-map: map tasks that run until the test lets them go.
	RegisterJob(Job{
		Name: "block-map",
		Map: func(spec JobSpec, part int) (MapOutput, error) {
			blockMap.Lock()
			started, release := blockMap.started, blockMap.release
			blockMap.Unlock()
			started <- struct{}{}
			<-release
			return empty(spec), nil
		},
		Reduce: noReduce,
		Merge:  noMerge,
	})
}

// TestExecutorRunsAtMostCoresAtOnce: the driver keeps a window of
// attempts dispatched per core, but the executor runs them from its
// queue on exactly CoresPerExecutor workers — never more Map calls at
// once than cores, and with work queued, that many.
func TestExecutorRunsAtMostCoresAtOnce(t *testing.T) {
	const cores = 2
	lc, err := StartLocal(LocalConfig{Executors: 1, CoresPerExecutor: cores, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	mapGauge.Lock()
	mapGauge.running, mapGauge.peak = 0, 0
	mapGauge.Unlock()
	if _, err := lc.Run(JobSpec{Job: "gauge-map", MapParts: 24, ReduceParts: 1}); err != nil {
		t.Fatal(err)
	}
	mapGauge.Lock()
	defer mapGauge.Unlock()
	if mapGauge.peak != cores {
		t.Fatalf("peak concurrent Map calls on one executor: %d, want its %d cores", mapGauge.peak, cores)
	}
}

// TestShutdownBehindFullWindow: a ShutdownReq that arrives behind a
// full window of queued attempts, with every core busy, ends the
// executor at once: the control reader never waits on the queue, and
// the queued attempts are dropped rather than run first.
func TestShutdownBehindFullWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const cores, window = 1, 8
	started, release := make(chan struct{}, window), make(chan struct{}) // one send per Map call
	blockMap.Lock()
	blockMap.started, blockMap.release = started, release
	blockMap.Unlock()
	defer close(release)
	// No Logf: the Map held on the busy core returns after the test,
	// and its report then fails on the closed connection.
	e := NewExecutor(ExecutorConfig{ID: 0, DriverAddr: ln.Addr().String()})
	exited := make(chan error, 1)
	go func() { exited <- e.Run() }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec(conn, 0)
	defer c.Close()
	if m, err := c.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*Hello); !ok {
		t.Fatalf("executor opened with %T, want Hello", m)
	}
	if err := c.Send(&HelloAck{OK: true, Executors: 1, Cores: cores}); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Job: "block-map", MapParts: window, ReduceParts: 1}
	for p := 0; p < window; p++ {
		if err := c.Send(&RunTask{Seq: uint64(p + 1), Spec: spec, Part: p}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	if err := c.Send(&ShutdownReq{}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("executor exit after ShutdownReq: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("executor still running 5 s after a ShutdownReq queued behind its window")
	}
	if n := len(started); n != 0 {
		t.Fatalf("%d more Map calls started behind the busy core, want none", n)
	}
}

// TestKillDuringWindowedMapStage: an executor killed in the middle of a
// 400-task map stage takes a whole window of dispatched attempts with
// it. Every one is requeued as a loss — no task spends its retry
// budget — and the result is byte-identical to a clean run. The kill
// waits for an event, not a task count: once 100 tasks have completed,
// the first attempt that starts on the victim with cores others already
// in flight kills it before its own body runs, so the window is never
// empty when it goes.
func TestKillDuringWindowedMapStage(t *testing.T) {
	spec := JobSpec{Job: "keyed-sum", MapParts: 400, ReduceParts: 3, Records: 100_000, Keys: 64}
	clean, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(spec)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}

	const victim, cores = 1, 2
	lc, err := StartLocal(LocalConfig{Executors: 3, CoresPerExecutor: cores, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	rt := lc.Driver.Runtime()
	var mu sync.Mutex
	var running, peak, lost, completed int
	killed := false
	mapFailures := int64(-1) // the task failures recorded when the map stage ended
	rt.AddListener(engine.FuncListener{
		StageEnd: func(m engine.StageMetrics) {
			mu.Lock()
			if mapFailures < 0 {
				mapFailures = rt.Metrics().TaskFailures()
			}
			mu.Unlock()
		},
		TaskStart: func(e engine.TaskEvent) {
			if e.Executor != victim {
				return
			}
			mu.Lock()
			running++
			peak = max(peak, running)
			kill := !killed && completed >= 100 && running > cores
			killed = killed || kill
			mu.Unlock()
			if kill {
				lc.Driver.killExecutor(victim)
			}
		},
		TaskEnd: func(e engine.TaskEvent) {
			mu.Lock()
			defer mu.Unlock()
			if !e.Failed {
				completed++
			}
			if e.Executor != victim {
				return
			}
			running--
			if e.Failed {
				lost++
			}
		},
	})
	got, err := lc.Run(spec)
	if err != nil {
		t.Fatalf("job under kill plan: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered output differs from clean run: %d vs %d bytes", len(got), len(want))
	}
	if alive := rt.AliveExecutors(); alive != 2 {
		t.Errorf("alive executors after the kill: %d, want 2", alive)
	}
	mu.Lock()
	defer mu.Unlock()
	// The reduce stage then fails on the victim's missing map outputs
	// until lineage repairs them; those are failures, and come later.
	if mapFailures != 0 {
		t.Errorf("%d map attempts counted as failures; attempts lost with an executor are losses", mapFailures)
	}
	if peak <= cores || lost == 0 {
		t.Errorf("victim peaked at %d attempts in flight and lost %d; the kill must take windowed attempts (more than %d)", peak, lost, cores)
	}
}
