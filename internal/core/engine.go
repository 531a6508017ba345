package core

import (
	"errors"
	"fmt"
	"slices"

	"hpcmr/fault"
	"hpcmr/internal/cluster"
	"hpcmr/internal/dfs"
	"hpcmr/internal/lustre"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/trace"
)

// Policies selects the scheduling policy per phase. Zero-value fields
// get defaults: FIFO for map and shuffle, Pinned for storing.
type Policies struct {
	// Map places map/compute tasks (the paper's baseline, delay
	// scheduling, or ELB).
	Map sched.Policy
	// Store dispatches ShuffleMapTasks; wrap Pinned with CAD for the
	// congestion-aware optimization.
	Store sched.Policy
	// Shuffle places fetch tasks.
	Shuffle sched.Policy
}

// withDefaults fills missing policies: FIFO maps, pinned storing, and
// spread-out fetch tasks (packing reducers onto the first nodes would
// funnel the whole shuffle into a few NICs).
func (p Policies) withDefaults(nodes int) Policies {
	if p.Map == nil {
		p.Map = sched.NewFIFO()
	}
	if p.Store == nil {
		p.Store = sched.NewPinned()
	}
	if p.Shuffle == nil {
		p.Shuffle = sched.NewSpread(nodes)
	}
	return p
}

// Engine executes simulated MapReduce jobs over a cluster and its
// storage systems. HDFS and Lustre are optional; a job referencing an
// absent system is rejected.
type Engine struct {
	C      *cluster.Cluster
	HDFS   *dfs.FS
	Lustre *lustre.FS
	// Tracer, when set, captures job/stage/task/fetch spans on the
	// simulator's virtual clock (build it with trace.New(C.Sim.Now)).
	// It records passively — tracing never perturbs simulated time.
	Tracer *trace.Tracer
	// Faults, when set, replays a deterministic fault plan against the
	// simulated job: the same plan an engine.Runtime can replay in real
	// time. Virtual time is the injector's clock here.
	Faults *fault.Injector

	jobSeq int
	// activeStages lists stages currently running, in start order —
	// deterministic iteration matters when a crash fans out to them.
	activeStages []*stageRunner
	crashesArmed bool
}

// NewEngine wires an engine over the given systems.
func NewEngine(c *cluster.Cluster, hdfs *dfs.FS, lfs *lustre.FS) *Engine {
	return &Engine{C: c, HDFS: hdfs, Lustre: lfs}
}

// stageStarted registers a running stage for crash fan-out.
func (e *Engine) stageStarted(r *stageRunner) {
	e.activeStages = append(e.activeStages, r)
}

// stageDone removes a finished stage from the crash fan-out set.
func (e *Engine) stageDone(r *stageRunner) {
	if i := slices.Index(e.activeStages, r); i >= 0 {
		e.activeStages = slices.Delete(e.activeStages, i, i+1)
	}
}

// crashNode permanently fails one simulated node and lets every active
// stage invalidate and requeue the attempts it loses.
func (e *Engine) crashNode(node int) {
	if node < 0 || node >= len(e.C.Nodes) || !e.C.Nodes[node].Alive() {
		return
	}
	e.C.Nodes[node].Fail()
	e.Tracer.InstantEvent(trace.CatFault, "fault:crash", node, 0, "node failed")
	// Snapshot: nodeLost re-offers slots, which can finish stages and
	// mutate activeStages under us.
	for _, r := range slices.Clone(e.activeStages) {
		r.nodeLost(node)
	}
}

// armFaultClock schedules the plan's time-triggered crashes on the
// virtual clock, once per engine.
func (e *Engine) armFaultClock() {
	if e.Faults == nil || e.crashesArmed {
		return
	}
	e.crashesArmed = true
	for _, t := range e.Faults.CrashTimes() {
		e.C.Sim.At(t, func() {
			for _, node := range e.Faults.TimeCrashes(e.C.Sim.Now()) {
				e.crashNode(node)
			}
		})
	}
}

// barrier returns a func that invokes done on its nth call.
func barrier(n int, done func()) func() {
	remaining := n
	return func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
}

// Run simulates spec to completion under the given policies and returns
// the result. It drives the shared simulator until the job finishes;
// background activity (cache flushers) may continue afterwards and is
// drained by the next Run on the same engine.
func (e *Engine) Run(spec JobSpec, pol Policies) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Input == InputHDFS && e.HDFS == nil {
		return nil, fmt.Errorf("core: job %q needs HDFS but none is configured", spec.Name)
	}
	needLustre := spec.Input == InputLustre ||
		spec.Store == StoreLustreLocal || spec.Store == StoreLustreShared
	if needLustre && e.Lustre == nil {
		return nil, fmt.Errorf("core: job %q needs Lustre but none is configured", spec.Name)
	}
	if spec.Store == StoreLocal && spec.IntermediateRatio > 0 && e.C.Nodes[0].Local == nil {
		return nil, fmt.Errorf("core: job %q stores intermediate data locally but nodes have no local device", spec.Name)
	}
	pol = pol.withDefaults(len(e.C.Nodes))
	e.jobSeq++
	e.armFaultClock()

	var blocks []dfs.Block
	if spec.Input == InputHDFS {
		blocks = e.HDFS.AddFile(fmt.Sprintf("input/%s/%d", spec.Name, e.jobSeq), spec.InputBytes, e.jobSeq)
	}

	res := &Result{Spec: spec}
	finished := false
	start := e.C.Sim.Now()
	var runIter func(i int)
	runIter = func(i int) {
		if i >= spec.Iterations {
			finished = true
			return
		}
		e.runIteration(spec, pol, blocks, i, res, func() { runIter(i + 1) })
	}
	runIter(0)
	for !finished && e.C.Sim.Step() {
	}
	if !finished {
		return nil, errors.New("core: simulation drained with the job incomplete (scheduler wedged?)")
	}
	res.JobTime = e.C.Sim.Now() - start
	e.Tracer.JobSpan(spec.Name, start, res.JobTime)
	return res, nil
}

// splitSize returns map task i's input size.
func splitSize(spec *JobSpec, i int) float64 {
	remaining := spec.InputBytes - float64(i)*spec.SplitBytes
	if remaining > spec.SplitBytes {
		return spec.SplitBytes
	}
	if remaining < 0 {
		return 0
	}
	return remaining
}

// blockFor returns the HDFS block covering byte offset.
func blockFor(blocks []dfs.Block, blockSize, offset float64) dfs.Block {
	idx := int(offset / blockSize)
	if idx >= len(blocks) {
		idx = len(blocks) - 1
	}
	return blocks[idx]
}

// runIteration executes one iteration's phases and appends its result.
func (e *Engine) runIteration(spec JobSpec, pol Policies, blocks []dfs.Block, iter int, res *Result, next func()) {
	nTasks := spec.NumMapTasks()
	nodes := len(e.C.Nodes)

	// ---- compute (map) phase ----
	tasks := make([]sched.TaskInfo, nTasks)
	for i := range tasks {
		tasks[i] = sched.TaskInfo{ID: i}
		if spec.Input == InputHDFS && !(spec.CacheInput && iter > 0) {
			b := blockFor(blocks, e.HDFS.Config().BlockSize, float64(i)*spec.SplitBytes)
			tasks[i].PreferredNodes = b.Locations
		}
	}
	mapStart := e.C.Sim.Now()
	it := IterationResult{}

	mapExec := func(id, node int, launch float64, done func(sched.TaskStats)) {
		n := e.C.Nodes[node]
		size := splitSize(&spec, id)
		speed := n.Speed(launch)
		if e.Faults != nil {
			// Transient degradation window: the node computes slower by
			// the plan's factor while the window is open at launch.
			speed /= e.Faults.SlowFactor(node, launch)
		}
		computeT := size / spec.ComputeRate / speed
		stats := sched.TaskStats{IntermediateBytes: size * spec.IntermediateRatio}
		// Computation pipelines with input retrieval: the task finishes
		// when both the compute stream and the input stream complete.
		both := barrier(2, func() { done(stats) })
		e.C.Sim.After(computeT, both)
		switch {
		case spec.Input == InputGenerated, spec.CacheInput && iter > 0:
			// Generated or memory-cached input: no storage I/O.
			e.C.Sim.After(0, both)
		case spec.Input == InputHDFS:
			b := blockFor(blocks, e.HDFS.Config().BlockSize, float64(id)*spec.SplitBytes)
			pseudo := dfs.Block{File: b.File, Index: b.Index, Size: size, Locations: b.Locations}
			e.HDFS.Read(node, pseudo, both)
		case spec.Input == InputLustre:
			// The stream is consumed no faster than the task computes.
			e.Lustre.ReadIngest(node, size, spec.ComputeRate, both)
		default:
			e.C.Sim.After(0, both)
		}
	}

	runStage(e, fmt.Sprintf("map/%d", iter), pol.Map, tasks, mapExec, func(tl *metrics.Timeline, local, remote int) {
		it.Map = PhaseResult{Start: mapStart, End: e.C.Sim.Now(), Timeline: *tl}
		it.LocalLaunches, it.RemoteLaunches = local, remote
		it.PerNodeIntermediate = tl.PerNode(nodes, func(r metrics.TaskRecord) float64 { return r.Bytes })
		it.PerNodeTasks = make([]int, nodes)
		for _, r := range tl.Records {
			it.PerNodeTasks[r.Node]++
		}
		if spec.Store == StoreNone || spec.IntermediateRatio <= 0 {
			now := e.C.Sim.Now()
			it.Store = PhaseResult{Start: now, End: now}
			it.Shuffle = PhaseResult{Start: now, End: now}
			res.Iters = append(res.Iters, it)
			next()
			return
		}
		e.runStoringPhase(spec, pol, iter, &it, res, next)
	})
}

// runStoringPhase flushes each map task's in-memory output to the
// intermediate store, pinned to the node holding it, then runs the
// shuffle phase.
func (e *Engine) runStoringPhase(spec JobSpec, pol Policies, iter int, it *IterationResult, res *Result, next func()) {
	nodes := len(e.C.Nodes)
	mapRecords := it.Map.Timeline.Records

	var files []*lustre.File
	useLustre := spec.Store == StoreLustreLocal || spec.Store == StoreLustreShared
	if useLustre {
		files = make([]*lustre.File, nodes)
	}

	tasks := make([]sched.TaskInfo, len(mapRecords))
	taskNode := make([]int, len(mapRecords))
	taskBytes := make([]float64, len(mapRecords))
	for i, r := range mapRecords {
		tasks[i] = sched.TaskInfo{ID: i, PreferredNodes: []int{r.Node}}
		taskNode[i] = r.Node
		taskBytes[i] = r.Bytes
		if useLustre && files[r.Node] == nil && r.Bytes > 0 {
			files[r.Node] = e.Lustre.Create(r.Node, fmt.Sprintf("shuffle/%s/%d/%d/n%d", spec.Name, e.jobSeq, iter, r.Node))
		}
	}

	storeStart := e.C.Sim.Now()
	storeExec := func(id, node int, launch float64, done func(sched.TaskStats)) {
		bytes := taskBytes[id]
		stats := sched.TaskStats{IntermediateBytes: bytes}
		finish := func() { done(stats) }
		switch {
		case bytes <= 0:
			e.C.Sim.After(0, finish)
		case useLustre:
			e.Lustre.Write(files[taskNode[id]], bytes, finish)
		default:
			e.C.Nodes[node].Local.Write(bytes, finish)
		}
	}

	runStage(e, fmt.Sprintf("store/%d", iter), pol.Store, tasks, storeExec, func(tl *metrics.Timeline, _, _ int) {
		it.Store = PhaseResult{Start: storeStart, End: e.C.Sim.Now(), Timeline: *tl}
		e.runShufflePhase(spec, pol, files, iter, it, res, next)
	})
}

// runShufflePhase launches the fetch tasks that pull every reducer's
// partition from each mapper node.
func (e *Engine) runShufflePhase(spec JobSpec, pol Policies, files []*lustre.File, iter int, it *IterationResult, res *Result, next func()) {
	nodes := len(e.C.Nodes)
	stageName := fmt.Sprintf("shuffle/%d", iter)
	reducers := spec.Reducers
	if reducers <= 0 {
		reducers = nodes
	}
	perNode := it.PerNodeIntermediate

	tasks := make([]sched.TaskInfo, reducers)
	for i := range tasks {
		tasks[i] = sched.TaskInfo{ID: i}
	}

	shuffleStart := e.C.Sim.Now()
	// fetchWindow is how many mapper nodes one reducer fetches from in
	// parallel: Spark bounds the *bytes* in flight (1 GB by default),
	// which at typical partition sizes admits several concurrent
	// streams and keeps the receiver's NIC busy.
	const fetchWindow = 8
	shuffleExec := func(id, dst int, launch float64, done func(sched.TaskStats)) {
		next := 0        // next mapper index to fetch from
		outstanding := 0 // fetches in flight
		finishedAll := false
		var pump func()
		fetchDone := func() {
			outstanding--
			pump()
		}
		oneFetch := func(m int, size float64) {
			fetchDone := fetchDone
			if e.Tracer.Enabled() {
				// Wrap the completion to record a fetch span; the wrap
				// changes no event timing, only observes it.
				fs, inner := e.C.Sim.Now(), fetchDone
				fetchDone = func() {
					// The simulator models volumes in bytes only; record
					// counts (0 = unknown) come from the real engine.
					e.Tracer.FetchSpan(stageName, id, m, dst, fs, e.C.Sim.Now()-fs, size, 0)
					inner()
				}
			}
			doFetch := func() {
				switch spec.Store {
				case StoreLustreLocal:
					if !e.C.Nodes[m].Alive() {
						// The writer's cache died with it, but the file
						// itself is on Lustre: read it directly.
						e.Tracer.InstantEvent(trace.CatFault, "fault:fetch-reroute", dst, size,
							fmt.Sprintf("stage=%s mapper=%d down, reading from Lustre", stageName, m))
						e.Lustre.ReadRemote(dst, files[m], size, fetchDone)
						return
					}
					// The writer node serves the request from its own
					// Lustre cache, then the data crosses the fabric.
					both := barrier(2, fetchDone)
					e.Lustre.ReadLocal(files[m], size, both)
					e.C.Fabric.Transfer(m, dst, size, both)
				case StoreLustreShared:
					// The fetcher reads the remote-written file directly,
					// paying DLM revocation on first touch.
					e.Lustre.ReadRemote(dst, files[m], size, fetchDone)
				default: // StoreLocal
					if !e.C.Nodes[m].Alive() {
						// Node-local intermediate data died with its node;
						// the reducer pays the lineage recompute cost.
						penalty := size / spec.ComputeRate / e.C.Nodes[dst].Speed(e.C.Sim.Now())
						e.Tracer.InstantEvent(trace.CatFault, "fault:recompute", dst, size,
							fmt.Sprintf("stage=%s mapper=%d down, recomputing partition", stageName, m))
						e.C.Sim.After(penalty, fetchDone)
						return
					}
					if m == dst {
						e.C.Nodes[m].Local.Read(size, fetchDone)
						return
					}
					both := barrier(2, fetchDone)
					e.C.Nodes[m].Local.Read(size, both)
					e.C.Fabric.Transfer(m, dst, size, both)
				}
			}
			// Transient fetch loss: bounded retry with doubling backoff,
			// mirroring the real runtime's FetchShuffleChunks.
			attempt := 0
			var try func()
			try = func() {
				if e.Faults != nil && attempt < 3 {
					if err := e.Faults.FetchFailure(dst, e.C.Sim.Now()); err != nil {
						attempt++
						e.Tracer.InstantEvent(trace.CatFault, "fault:fetch-retry", dst, float64(attempt),
							fmt.Sprintf("stage=%s task=%d mapper=%d: %v", stageName, id, m, err))
						e.C.Sim.After(0.005*float64(int(1)<<attempt), try)
						return
					}
				}
				doFetch()
			}
			try()
		}
		pump = func() {
			if finishedAll {
				return
			}
			for outstanding < fetchWindow && next < nodes {
				m := (dst + 1 + next) % nodes
				next++
				size := perNode[m] / float64(reducers)
				if size <= 0 {
					continue
				}
				outstanding++
				oneFetch(m, size)
			}
			if outstanding == 0 && next >= nodes {
				finishedAll = true
				done(sched.TaskStats{})
			}
		}
		pump()
	}

	runStage(e, stageName, pol.Shuffle, tasks, shuffleExec, func(tl *metrics.Timeline, _, _ int) {
		it.Shuffle = PhaseResult{Start: shuffleStart, End: e.C.Sim.Now(), Timeline: *tl}
		res.Iters = append(res.Iters, *it)
		next()
	})
}
