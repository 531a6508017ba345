package perf

import (
	"time"

	"hpcmr/engine"
	"hpcmr/rdd"
	"hpcmr/trace"
)

// EngineWorkloadSpec sizes the many-short-tasks engine workload shared
// by the runtime-throughput and trace-overhead scenarios.
type EngineWorkloadSpec struct {
	Tasks     int
	Executors int
	Cores     int
	// WorkUS is the per-task CPU burn in microseconds — sized so
	// scheduler and capture costs are amplified, not hidden behind long
	// task bodies.
	WorkUS int
	Traced bool
}

// RunEngineWorkload builds a fresh engine, runs Tasks map tasks of
// ~WorkUS CPU each, and returns the wall seconds plus the captured
// trace event count (0 untraced).
func RunEngineWorkload(spec EngineWorkloadSpec) (seconds float64, events int, err error) {
	cfg := engine.Config{Executors: spec.Executors, CoresPerExecutor: spec.Cores}
	var tr *trace.Tracer
	if spec.Traced {
		// Size the rings to the workload instead of the 32k-events
		// default: ring allocation is inside the timed region when perf
		// scenarios run this, and the trace-overhead gate compares those
		// times, so megabytes of zeroing would be charged to capture. The
		// workload emits one event per task plus one per stage; twice the
		// task count per shard never drops even if one node ran them all.
		tr = trace.NewWall(trace.Options{ShardCapacity: 2 * spec.Tasks})
		cfg.SchedAudit = trace.SchedAudit(tr)
	}
	ctx, err := rdd.NewContext(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer ctx.Stop()
	if tr != nil {
		ctx.Runtime().AddListener(trace.EngineListener(tr))
	}

	ids := make([]int, spec.Tasks)
	for i := range ids {
		ids[i] = i
	}
	start := time.Now()
	_, err = rdd.Map(rdd.Parallelize(ctx, ids, spec.Tasks), func(i int) int {
		return burn(spec.WorkUS, i)
	}).Collect()
	if err != nil {
		return 0, 0, err
	}
	seconds = time.Since(start).Seconds()
	if tr != nil {
		events = tr.Len()
	}
	return seconds, events, nil
}

// burn spins for roughly us microseconds of CPU and returns a value the
// compiler cannot discard.
func burn(us, seed int) int {
	deadline := time.Now().Add(time.Duration(us) * time.Microsecond)
	x := seed
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			x = x*1664525 + 1013904223
		}
	}
	return x
}
