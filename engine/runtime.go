package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hpcmr/internal/sched"
	"hpcmr/internal/spill"
)

// ErrAllExecutorsLost fails a stage when no executor remains alive to
// run its tasks.
var ErrAllExecutorsLost = errors.New("engine: all executors lost")

// TaskContext is passed to every running task.
type TaskContext struct {
	StageID  int
	TaskID   int
	Attempt  int
	Executor int

	shuffleBytes   float64
	shuffleRecords int64
}

// AddShuffleBytes records intermediate data the task produced; the
// scheduler's load balancer (ELB) feeds on this.
func (tc *TaskContext) AddShuffleBytes(n float64) { tc.shuffleBytes += n }

// AddShuffleRecords records how many shuffle records the task wrote —
// the record-count dimension of shuffle volume (map-side combining
// shrinks it without changing result bytes fetched per key).
func (tc *TaskContext) AddShuffleRecords(n int64) { tc.shuffleRecords += n }

// TaskSpec is one schedulable task of a stage.
type TaskSpec struct {
	// Preferred lists executor IDs holding the task's input, if any.
	Preferred []int
	// Run executes the task body; returning an error (or panicking)
	// triggers a retry up to MaxTaskFailures attempts, except that an
	// error wrapping a *MapOutputMissingError ends the stage at once
	// (RunStage). The TaskContext is only valid for the duration of the
	// call — executor workers reuse it across attempts.
	Run func(tc *TaskContext) error
}

// Runtime is the local multi-executor execution engine.
type Runtime struct {
	cfg       Config
	shuffle   *ShuffleStore
	metrics   *Metrics
	listeners listeners
	start     time.Time
	workers   []*execWorkers

	// tier holds the shuffle store's and the rdd cache's chunk lists
	// under MemoryBudget; nil when the runtime is unbounded.
	tier *spill.Tier

	mu      sync.Mutex
	stageID int
	closed  bool
	stages  map[*stageState]struct{}

	// execMu guards executor liveness. Lock order: a stage's mu may be
	// held when taking execMu, never the reverse.
	execMu sync.Mutex
	dead   []bool
}

// New builds a runtime from cfg.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:     cfg,
		metrics: &Metrics{},
		start:   time.Now(),
		stages:  make(map[*stageState]struct{}),
		dead:    make([]bool, cfg.Executors),
		workers: make([]*execWorkers, cfg.Executors),
	}
	if cfg.MemoryBudget > 0 {
		t, err := spill.NewTier(spill.NewAccountant(cfg.MemoryBudget), cfg.SpillDir, "hpcmr-spill-*")
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		t.SetAudit(rt.auditSpill)
		rt.tier = t
	}
	rt.shuffle = NewTieredShuffleStore(rt.tier)
	slots := cfg.CoresPerExecutor
	if cfg.RemoteBodies {
		slots *= windowPerCore
	}
	for e := range rt.workers {
		rt.workers[e] = newExecWorkers(e, slots, runQueuePerSlot*slots)
	}
	return rt, nil
}

// Tier returns the memory-budget tier the shuffle store and the rdd
// cache share, so shuffle output and cached partitions compete for one
// budget; nil when the runtime is unbounded.
func (rt *Runtime) Tier() *spill.Tier { return rt.tier }

// SpillStats snapshots the memory-budget counters; ok is false when the
// runtime runs unbounded.
func (rt *Runtime) SpillStats() (st spill.Stats, ok bool) { return rt.tier.Stats() }

// auditSpill reports a spill decision to the listeners under Policy
// "spill" — how the trace subsystem sees spill/unspill events.
func (rt *Runtime) auditSpill(kind string, value float64, detail string) {
	rt.listeners.decision(sched.AuditEvent{Policy: "spill", Kind: kind, Node: -1, Value: value, Detail: detail})
}

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Shuffle returns the runtime's shuffle store.
func (rt *Runtime) Shuffle() *ShuffleStore { return rt.shuffle }

// Metrics returns accumulated execution metrics.
func (rt *Runtime) Metrics() *Metrics { return rt.metrics }

// Close marks the runtime closed and winds the executor workers down;
// subsequent RunStage calls fail. Attempts already queued still drain
// before the workers exit. A runtime-owned spill directory is removed.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	already := rt.closed
	rt.closed = true
	rt.mu.Unlock()
	if already {
		return
	}
	for _, w := range rt.workers {
		w.stop()
	}
	rt.tier.Close()
}

// elapsed is the fault-injection clock: seconds since the runtime was
// built.
func (rt *Runtime) elapsed() float64 { return time.Since(rt.start).Seconds() }

// ExecutorDead reports whether an executor has been failed.
func (rt *Runtime) ExecutorDead(exec int) bool {
	if exec < 0 || exec >= rt.cfg.Executors {
		return true
	}
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	return rt.dead[exec]
}

// AliveExecutors returns how many executors have not been failed.
func (rt *Runtime) AliveExecutors() int {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	n := 0
	for _, d := range rt.dead {
		if !d {
			n++
		}
	}
	return n
}

// auditFault reports a recovery decision to the listeners under Policy
// "fault".
func (rt *Runtime) auditFault(kind string, node int, value float64, detail string) {
	rt.listeners.decision(sched.AuditEvent{Policy: "fault", Kind: kind, Node: node, Value: value, Detail: detail})
}

// AuditRecovery lets higher layers (the rdd driver's lineage recovery)
// report their decisions to the listeners as the runtime's own fault
// handling does, under Policy "fault".
func (rt *Runtime) AuditRecovery(kind string, node int, value float64, detail string) {
	rt.auditFault(kind, node, value, detail)
}

// FailExecutor permanently removes an executor: its slots stop
// dispatching, the tasks of attempts dispatched to it are requeued on
// the survivors at once (the attempts are discarded when they return),
// and every shuffle map output it produced is invalidated so lineage
// re-execution rebuilds it. The invalidated partitions are returned.
// Failing an already-dead executor is a no-op.
//
// The executor's persistent workers stay alive and keep draining their
// queue: each queued attempt hits the dead-executor abort in runTask.
//
// Fault plans call this through the injector's crash triggers; tests
// and operators may call it directly.
func (rt *Runtime) FailExecutor(exec int) []LostPart {
	if exec < 0 || exec >= rt.cfg.Executors {
		return nil
	}
	rt.execMu.Lock()
	if rt.dead[exec] {
		rt.execMu.Unlock()
		return nil
	}
	rt.dead[exec] = true
	rt.execMu.Unlock()

	lost := rt.shuffle.InvalidateOwner(exec)
	rt.auditFault("crash", exec, float64(len(lost)),
		fmt.Sprintf("executor %d lost; %d map outputs invalidated", exec, len(lost)))
	rt.mu.Lock()
	stages := make([]*stageState, 0, len(rt.stages))
	for st := range rt.stages {
		stages = append(stages, st)
	}
	rt.mu.Unlock()
	for _, st := range stages {
		st.executorLost(exec)
	}
	return lost
}

// checkTimeCrashes fires any time-triggered crashes now due.
func (rt *Runtime) checkTimeCrashes() {
	if rt.cfg.Faults == nil {
		return
	}
	for _, exec := range rt.cfg.Faults.TimeCrashes(rt.elapsed()) {
		rt.FailExecutor(exec)
	}
}

// fetchRetrying runs fetch through the shared RetryFetch discipline
// against transient injected fetch faults. Missing map output is
// returned immediately (not transient; lineage must repair it).
func (rt *Runtime) fetchRetrying(tc *TaskContext, shuffleID, reducePart int, fetch func() error) error {
	err := RetryFetch(
		func(attempt int, backoff time.Duration, last error) {
			rt.auditFault("fetch-retry", tc.Executor, float64(attempt),
				fmt.Sprintf("shuffle=%d part=%d backoff=%s: %v", shuffleID, reducePart, backoff, last))
		},
		func() error {
			if inj := rt.cfg.Faults; inj != nil {
				if err := inj.FetchFailure(tc.Executor, rt.elapsed()); err != nil {
					return err
				}
			}
			return fetch()
		})
	if err == nil {
		return nil
	}
	var miss *MapOutputMissingError
	if errors.As(err, &miss) {
		return err
	}
	return fmt.Errorf("engine: shuffle %d fetch for reduce partition %d failed after %d attempts: %w",
		shuffleID, reducePart, FetchAttempts, err)
}

// FetchShuffleChunks fetches one reduce partition as stored chunks (one
// boxed typed slice per map partition, nil where empty), with bounded
// retry-and-backoff against transient fetch faults. Missing map output
// (executor loss or stage-ordering bugs) is returned immediately as a
// MapOutputMissingError — that is not transient; the caller must
// re-execute the missing partitions through lineage. Task bodies should
// use this instead of Shuffle().FetchChunks. It is the hot path the rdd
// reduce side uses — and the co-located zero-copy path:
// the stored typed slices are handed back directly, no gob box, no
// copy, under the chunk immutability contract (a chunk sunk into the
// store is never mutated, so aliasing it out is safe).
//
// When listeners are subscribed, the fetched volume is split by
// ownership: chunks whose producing executor is the fetching task's
// executor report as a local (owner == runner) fetch event, the rest as
// a remote one — in-process both are pointer reads, but the split is
// exactly the volume that would cross the network in the distributed
// runtime, and it is what the shuffle-locality placement optimizes.
func (rt *Runtime) FetchShuffleChunks(tc *TaskContext, shuffleID, reducePart int) ([]any, error) {
	start := time.Now()
	var out []any
	err := rt.fetchRetrying(tc, shuffleID, reducePart, func() error {
		var ferr error
		out, ferr = rt.shuffle.FetchChunks(shuffleID, reducePart)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	if rt.listeners.active() {
		owners := rt.shuffle.Owners(shuffleID)
		var lr, lb, rr, rb int64
		for m, ch := range out {
			r, by := ChunkVolume(ch)
			if m < len(owners) && owners[m] == tc.Executor {
				lr, lb = lr+r, lb+by
			} else {
				rr, rb = rr+r, rb+by
			}
		}
		rt.EmitFetch(FetchEvent{
			Shuffle:    shuffleID,
			ReducePart: reducePart,
			TaskID:     tc.TaskID,
			Attempt:    tc.Attempt,
			Executor:   tc.Executor,
			Start:      start,
			Duration:   time.Since(start).Seconds(),
		}, lr, lb, rr, rb)
	}
	return out, nil
}

// EmitFetch publishes one gather to the runtime's listeners, split by
// path: e carries the gather's identity and timing, and the local and
// the remote volume each fill a copy of it. A path that moved nothing
// is left out, but a gather that moved nothing at all still reports one
// zero-byte local event, so every gather's time shows in a trace.
// FetchShuffleChunks reports through it, and so does the distributed
// driver, whose gathers run on executor processes and come back over
// the control channel.
func (rt *Runtime) EmitFetch(e FetchEvent, localRecords, localBytes, remoteRecords, remoteBytes int64) {
	if !rt.listeners.active() {
		return
	}
	if localRecords > 0 || localBytes > 0 || (remoteRecords == 0 && remoteBytes == 0) {
		l := e
		l.Records, l.Bytes = localRecords, float64(localBytes)
		rt.listeners.fetch(l)
	}
	if remoteRecords > 0 || remoteBytes > 0 {
		e.Records, e.Bytes, e.Remote = remoteRecords, float64(remoteBytes), true
		rt.listeners.fetch(e)
	}
}

// ---- persistent executor workers ----

// launchReq is one dispatched attempt on its way to an executor worker.
type launchReq struct {
	st *stageState
	d  sched.Decision
}

// execWorkers is one executor's persistent worker pool: a goroutine per
// slot, fed by a bounded ring queue. The pool replaces
// goroutine-per-attempt dispatch so a stage of many short tasks does not
// pay a goroutine spawn per 40-100µs task body.
type execWorkers struct {
	exec int

	mu      sync.Mutex
	cond    *sync.Cond
	ring    []launchReq
	head, n int
	stopped bool
}

// newExecWorkers starts the worker goroutines for one executor.
func newExecWorkers(exec, slots, depth int) *execWorkers {
	w := &execWorkers{exec: exec, ring: make([]launchReq, depth)}
	w.cond = sync.NewCond(&w.mu)
	for c := 0; c < slots; c++ {
		go w.run()
	}
	return w
}

// enqueue offers one attempt to the queue; false means the queue is
// full (concurrent stages oversubscribing the executor) or the pool has
// stopped — the caller must fall back to a dedicated goroutine so
// dispatch never blocks and no launch is lost.
func (w *execWorkers) enqueue(r launchReq) bool {
	w.mu.Lock()
	if w.stopped || w.n == len(w.ring) {
		w.mu.Unlock()
		return false
	}
	w.ring[(w.head+w.n)%len(w.ring)] = r
	w.n++
	w.cond.Signal()
	w.mu.Unlock()
	return true
}

// dequeue blocks for the next attempt; false means the pool stopped and
// the queue has fully drained.
func (w *execWorkers) dequeue() (launchReq, bool) {
	w.mu.Lock()
	for w.n == 0 && !w.stopped {
		w.cond.Wait()
	}
	if w.n == 0 {
		w.mu.Unlock()
		return launchReq{}, false
	}
	r := w.ring[w.head]
	w.ring[w.head] = launchReq{}
	w.head = (w.head + 1) % len(w.ring)
	w.n--
	w.mu.Unlock()
	return r, true
}

// stop lets the workers exit once the queue drains; enqueue rejects
// from now on (callers degrade to direct goroutines).
func (w *execWorkers) stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// run is one worker goroutine: pop, execute, repeat. The TaskContext is
// reused across the worker's attempts — one allocation per worker
// lifetime instead of one per task (task bodies must not retain it past
// Run, see TaskSpec).
func (w *execWorkers) run() {
	tc := new(TaskContext)
	for {
		r, ok := w.dequeue()
		if !ok {
			return
		}
		r.st.runTask(r.d, w.exec, tc)
	}
}

// launchAttempt hands one attempt to exec's persistent workers,
// degrading to a dedicated goroutine when the bounded queue is
// saturated or the pool has stopped. Safe to call with stage locks
// held: it never blocks.
func (rt *Runtime) launchAttempt(st *stageState, d sched.Decision, exec int) {
	if !rt.workers[exec].enqueue(launchReq{st: st, d: d}) {
		go st.runTask(d, exec, nil)
	}
}

// stageState adapts one stage to the runtime: a sched.Stage — the
// dispatcher the simulator drives too, with its sticky declines within a
// sweep, one retry-hint timer whose tick re-offers every node and a full
// pass for forced tasks — decides every launch, requeue, stage failure
// and task-level fault. The stage feeds it under mu from worker
// goroutines, time.AfterFunc timers and executor losses, on the fault
// clock (Runtime.elapsed), whose differences are all a policy reads.
// What stays here is the runtime's side: the hand-off to executor
// workers, listeners, metrics, carrying out the machine's hangs,
// injected failures and crashes, and the driver wake-up.
//
// Dispatch is completion-driven: a finishing attempt re-offers the
// freed slot inline and the driver goroutine in RunStage is only woken
// on terminal transitions (wakeDriverLocked), so routine completions do
// not bounce through a cond-broadcast and a driver wakeup per task.
type stageState struct {
	rt      *Runtime
	stageID int
	name    string
	tasks   []TaskSpec

	mu   sync.Mutex
	cond *sync.Cond
	m    *sched.Stage
	// crashChecks counts completions whose count-triggered crashes have
	// not been carried out yet; the stage resolves only at zero, so a
	// crash due at a completion fires before RunStage returns.
	crashChecks int
	finished    bool
}

// RunStage executes tasks to completion and returns the first fatal
// error. Tasks that error or panic are retried (on any executor) until
// MaxTaskFailures real failures are spent; exhausting the budget fails
// the stage after in-flight tasks drain. An attempt that reports a
// *MapOutputMissingError fails the stage on its first report: nothing
// new launches, in-flight attempts drain, and the returned error wraps
// the miss so the caller can rebuild the lost map output from lineage
// and run the stage again. Attempts lost to executor failure do not
// count against the budget — the task is requeued on the surviving
// executors.
func (rt *Runtime) RunStage(name string, tasks []TaskSpec) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return errors.New("engine: runtime is closed")
	}
	rt.stageID++
	stageID := rt.stageID
	rt.mu.Unlock()

	if len(tasks) == 0 {
		return nil
	}
	rt.listeners.stageStart(name, len(tasks))

	st := &stageState{
		rt:      rt,
		stageID: stageID,
		name:    name,
		tasks:   tasks,
	}
	st.cond = sync.NewCond(&st.mu)
	slots := make([]int, rt.cfg.Executors)
	for i := range slots {
		if !rt.ExecutorDead(i) {
			slots[i] = rt.cfg.CoresPerExecutor
		}
	}
	// Without a listener the policy and the dispatcher audit nothing,
	// so an unobserved stage assembles no decision events.
	var audit sched.AuditFunc
	if rt.listeners.active() {
		audit = rt.listeners.decision
	}
	window := 0
	if rt.cfg.RemoteBodies {
		window = (windowPerCore - 1) * rt.cfg.CoresPerExecutor
	}
	st.m = sched.NewStage(sched.StageConfig{
		Name:        name,
		Policy:      rt.cfg.newPolicy(audit),
		Slots:       slots,
		Window:      window,
		MaxFailures: rt.cfg.MaxTaskFailures,
		Speculate:   rt.cfg.Speculation,
		Launch:      func(d sched.Decision, exec int) { rt.launchAttempt(st, d, exec) },
		Timer:       st.scheduleRetry,
		Faults:      rt.cfg.Faults,
		Audit:       audit,
	}, len(tasks))
	rt.mu.Lock()
	rt.stages[st] = struct{}{}
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.stages, st)
		rt.mu.Unlock()
	}()

	if rt.cfg.Speculation {
		st.scheduleSpeculationCheck()
	}
	if rt.cfg.Faults != nil {
		rt.checkTimeCrashes()
		st.scheduleFaultCheck()
	}

	infos := make([]sched.TaskInfo, len(tasks))
	for i, t := range tasks {
		infos[i] = sched.TaskInfo{ID: i, PreferredNodes: t.Preferred}
	}

	st.mu.Lock()
	stageStart := time.Now()
	if rt.AliveExecutors() == 0 {
		st.m.Abort(ErrAllExecutorsLost)
	}
	st.m.Start(infos, rt.elapsed())
	for !st.resolvedLocked() {
		st.cond.Wait()
		st.m.Dispatch(rt.elapsed())
	}
	st.finished = true
	err := st.m.Err()
	specs := st.m.Speculations()
	st.mu.Unlock()

	sm := StageMetrics{Name: name, Tasks: len(tasks), Duration: time.Since(stageStart), Success: err == nil}
	rt.metrics.recordStage(name, len(tasks), sm.Duration, err == nil)
	rt.metrics.recordSpeculations(specs)
	rt.listeners.stageEnd(sm)
	if err != nil {
		return fmt.Errorf("engine: stage %q: %w", name, err)
	}
	return nil
}

// executorLost reacts to an executor failure while the stage runs: the
// machine withdraws its slots and requeues its attempts' tasks, and the
// stage fails outright if no executor survives.
func (st *stageState) executorLost(exec int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished {
		return
	}
	st.m.NodeLost(exec)
	if st.rt.AliveExecutors() == 0 {
		st.m.Abort(ErrAllExecutorsLost)
	}
	st.m.Dispatch(st.rt.elapsed())
	st.cond.Broadcast()
}

// resolvedLocked is RunStage's exit condition: all tasks settled, or a
// failed stage's in-flight attempts fully drained — and either way no
// crash check still pending.
func (st *stageState) resolvedLocked() bool {
	return st.m.Settled() && st.crashChecks == 0
}

// wakeDriverLocked wakes the RunStage driver only when its wait
// condition has flipped. Routine completions skip the wakeup (the
// completing worker has already re-dispatched inline).
func (st *stageState) wakeDriverLocked() {
	if st.resolvedLocked() {
		st.cond.Broadcast()
	}
}

// scheduleRetry ticks the machine after the policy-requested wait.
func (st *stageState) scheduleRetry(after float64) {
	time.AfterFunc(time.Duration(after*float64(time.Second))+time.Millisecond, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		st.m.Tick(st.rt.elapsed())
		st.cond.Broadcast()
	})
}

// scheduleSpeculationCheck arms the periodic straggler scan.
func (st *stageState) scheduleSpeculationCheck() {
	time.AfterFunc(speculationInterval, func() {
		st.mu.Lock()
		if st.finished || st.m.Remaining() == 0 || st.m.Err() != nil {
			st.mu.Unlock()
			return
		}
		st.m.Speculate(st.rt.elapsed())
		st.cond.Broadcast()
		st.mu.Unlock()
		st.scheduleSpeculationCheck()
	})
}

// scheduleFaultCheck arms the periodic time-based crash-trigger poll.
func (st *stageState) scheduleFaultCheck() {
	time.AfterFunc(faultCheckInterval, func() {
		st.mu.Lock()
		fin := st.finished || st.m.Remaining() == 0
		st.mu.Unlock()
		if fin {
			return
		}
		st.rt.checkTimeCrashes()
		st.scheduleFaultCheck()
	})
}

// runTask executes one attempt on an executor worker (or an overflow
// goroutine when the worker queue was saturated). scratch, when non-nil,
// is the worker's reusable TaskContext; nil allocates a fresh one.
func (st *stageState) runTask(d sched.Decision, exec int, scratch *TaskContext) {
	rt := st.rt
	inj := rt.cfg.Faults

	st.mu.Lock()
	attempt, hang, run := 0, 0.0, false
	if rt.ExecutorDead(exec) {
		st.m.Finished(d.TaskID, exec, rt.elapsed(), sched.Loss, sched.TaskStats{}, nil)
	} else {
		attempt, hang, run = st.m.Started(d.TaskID, exec, rt.elapsed())
	}
	if !run {
		// Launch aborted: the executor died between dispatch and launch,
		// or a sibling settled the task. A failed stage does NOT abort
		// here — dispatched attempts drain normally.
		st.m.Dispatch(rt.elapsed())
		st.wakeDriverLocked()
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()

	if hang > 0 {
		rt.auditFault("hang", exec, hang,
			fmt.Sprintf("stage=%s task=%d attempt=%d", st.name, d.TaskID, attempt))
		time.Sleep(time.Duration(hang * float64(time.Second)))
	}

	tc := scratch
	if tc == nil {
		tc = new(TaskContext)
	}
	*tc = TaskContext{
		StageID:  st.stageID,
		TaskID:   d.TaskID,
		Attempt:  attempt,
		Executor: exec,
	}
	start := time.Now()
	rt.listeners.taskStart(TaskEvent{
		Stage:    st.name,
		TaskID:   d.TaskID,
		Attempt:  attempt,
		Executor: exec,
		Start:    start,
	})
	var err error
	if inj != nil {
		st.mu.Lock()
		_, err = st.m.InjectedFailure(d.TaskID, exec, rt.elapsed())
		st.mu.Unlock()
		if err != nil {
			rt.auditFault("task-fail", exec, float64(d.TaskID),
				fmt.Sprintf("stage=%s attempt=%d injected", st.name, attempt))
		}
	}
	if err == nil {
		err = runBody(st.tasks[d.TaskID].Run, tc)
	}
	dur := time.Since(start).Seconds()
	if inj != nil && err == nil {
		if f := inj.SlowFactor(exec, rt.elapsed()); f > 1 {
			// Model the degraded device (SSD buffer depletion): the
			// attempt takes factor times longer in wall time, which is
			// what the speculation scanner keys on.
			time.Sleep(time.Duration(dur * (f - 1) * float64(time.Second)))
			dur *= f
		}
	}
	st.mu.Lock()
	out := sched.Success
	switch {
	case rt.ExecutorDead(exec):
		// The attempt went down with its executor: that is a loss, not
		// a failure — it does not burn the task's retry budget.
		out = sched.Loss
	case err != nil:
		out = sched.Failure
	}
	counted, crashed := st.m.Finished(d.TaskID, exec, rt.elapsed(), out,
		sched.TaskStats{Duration: dur, IntermediateBytes: tc.shuffleBytes}, err)
	if counted && err != nil {
		// A missing map output is not transient: every retry would fetch
		// the same lost locations, so the stage ends at once and the
		// caller's lineage walk repairs the shuffle.
		var miss *MapOutputMissingError
		if errors.As(err, &miss) {
			st.m.Abort(err)
		}
	}
	if counted {
		rt.metrics.recordTask(dur, tc.shuffleBytes, tc.shuffleRecords, d.Local, err != nil)
	}
	rt.listeners.taskEnd(TaskEvent{
		Stage:          st.name,
		TaskID:         d.TaskID,
		Attempt:        attempt,
		Executor:       exec,
		Start:          start,
		Duration:       dur,
		ShuffleBytes:   tc.shuffleBytes,
		ShuffleRecords: tc.shuffleRecords,
		Failed:         err != nil,
		Counted:        counted,
	})
	if len(crashed) > 0 {
		st.crashChecks++
	}
	st.m.Dispatch(rt.elapsed())
	st.wakeDriverLocked()
	st.mu.Unlock()

	// The crashes this completion triggered run after the stage lock is
	// released (FailExecutor re-enters stage state), but before the stage
	// can resolve: they land while the stage is still running, never
	// after RunStage has returned.
	if len(crashed) > 0 {
		for _, e := range crashed {
			rt.FailExecutor(e)
		}
		st.mu.Lock()
		st.crashChecks--
		st.wakeDriverLocked()
		st.mu.Unlock()
	}
}

// runBody invokes a task body, converting panics into errors.
func runBody(f func(*TaskContext) error, tc *TaskContext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panic: %v", r)
		}
	}()
	return f(tc)
}
