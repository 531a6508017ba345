package engine

import (
	"errors"
	"fmt"
	"os"
	"sort"
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
	// triggers a retry up to MaxTaskFailures attempts. The TaskContext
	// is only valid for the duration of the call — executor workers
	// reuse it across attempts.
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

	// Memory-budget state (nil/empty when MemoryBudget is 0): the
	// accountant shared by the shuffle store and the rdd cache, the
	// spill directory, and whether Close owns its removal.
	mem          *spill.Accountant
	spillDir     string
	ownsSpillDir bool

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
		dir := cfg.SpillDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "hpcmr-spill-*"); err != nil {
				return nil, fmt.Errorf("engine: spill dir: %w", err)
			}
			rt.ownsSpillDir = true
		}
		rt.mem = spill.NewAccountant(cfg.MemoryBudget)
		rt.spillDir = dir
		store, err := NewSpillingShuffleStore(rt.mem, dir)
		if err != nil {
			if rt.ownsSpillDir {
				os.RemoveAll(dir)
			}
			return nil, err
		}
		store.SetSpillAudit(rt.auditSpill)
		rt.shuffle = store
	} else {
		rt.shuffle = NewShuffleStore()
	}
	for e := range rt.workers {
		rt.workers[e] = newExecWorkers(e, cfg.CoresPerExecutor, cfg.RunQueueDepth)
	}
	return rt, nil
}

// MemoryAccountant returns the shared memory-budget accountant, nil
// when the runtime is unbounded. The rdd cache admits its partitions
// here so shuffle output and cached data compete for one budget.
func (rt *Runtime) MemoryAccountant() *spill.Accountant { return rt.mem }

// SpillDir is where evicted entries land ("" when unbounded).
func (rt *Runtime) SpillDir() string { return rt.spillDir }

// SpillStats snapshots the memory-budget counters; ok is false when the
// runtime runs unbounded.
func (rt *Runtime) SpillStats() (st spill.Stats, ok bool) {
	if rt.mem == nil {
		return spill.Stats{}, false
	}
	return rt.mem.Stats(), true
}

// auditSpill emits a spill decision through the SchedAudit hook under
// Policy "spill" — how the trace subsystem sees spill/unspill events.
func (rt *Runtime) auditSpill(kind string, value float64, detail string) {
	if rt.cfg.SchedAudit != nil {
		rt.cfg.SchedAudit(sched.AuditEvent{
			Policy: "spill", Kind: kind, Node: -1, Value: value, Detail: detail,
		})
	}
}

// AuditSpill lets the rdd cache report its spill decisions through the
// same hook the shuffle store uses, under Policy "spill".
func (rt *Runtime) AuditSpill(kind string, value float64, detail string) {
	rt.auditSpill(kind, value, detail)
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
	if rt.ownsSpillDir {
		os.RemoveAll(rt.spillDir)
	}
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

// auditFault emits a recovery decision through the SchedAudit hook
// under Policy "fault".
func (rt *Runtime) auditFault(kind string, node int, value float64, detail string) {
	if rt.cfg.SchedAudit != nil {
		rt.cfg.SchedAudit(sched.AuditEvent{
			Policy: "fault", Kind: kind, Node: node, Value: value, Detail: detail,
		})
	}
}

// AuditRecovery lets higher layers (the rdd driver's lineage recovery)
// emit their decisions through the same audit hook the runtime's own
// fault handling uses, under Policy "fault".
func (rt *Runtime) AuditRecovery(kind string, node int, value float64, detail string) {
	rt.auditFault(kind, node, value, detail)
}

// FailExecutor permanently removes an executor: its slots stop
// dispatching, attempts in flight on it are discarded when they return
// (and their tasks requeued), and every shuffle map output it produced
// is invalidated so lineage re-execution rebuilds it. The invalidated
// partitions are returned. Failing an already-dead executor is a no-op.
//
// The executor's persistent workers stay alive and keep draining their
// queue: each queued attempt hits the dead-executor abort in runTask,
// which requeues the task on the survivors.
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
	backoff := time.Duration(rt.cfg.FetchRetryBackoffSeconds * float64(time.Second))
	err := RetryFetch(rt.cfg.MaxFetchRetries, backoff,
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
		shuffleID, reducePart, rt.cfg.MaxFetchRetries, err)
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
			r, by := chunkVolume(ch)
			if m < len(owners) && owners[m] == tc.Executor {
				lr, lb = lr+r, lb+by
			} else {
				rr, rb = rr+r, rb+by
			}
		}
		base := FetchEvent{
			Shuffle:    shuffleID,
			ReducePart: reducePart,
			TaskID:     tc.TaskID,
			Attempt:    tc.Attempt,
			Executor:   tc.Executor,
			Start:      start,
			Duration:   time.Since(start).Seconds(),
		}
		if lr > 0 || lb > 0 || (rr == 0 && rb == 0) {
			e := base
			e.Records, e.Bytes = lr, float64(lb)
			rt.listeners.fetch(e)
		}
		if rr > 0 || rb > 0 {
			e := base
			e.Records, e.Bytes, e.Remote = rr, float64(rb), true
			rt.listeners.fetch(e)
		}
	}
	return out, nil
}

// EmitFetch publishes an externally-observed shuffle fetch to the
// runtime's listeners. The local runtime's own fetch paths report
// through FetchShuffleChunks; this hook exists for the
// distributed driver, whose reduce-side fetches happen on remote
// executor processes and are reported back over the control channel.
func (rt *Runtime) EmitFetch(e FetchEvent) {
	if rt.listeners.active() {
		rt.listeners.fetch(e)
	}
}

// ---- persistent executor workers ----

// launchReq is one dispatched attempt on its way to an executor worker.
type launchReq struct {
	st *stageState
	d  sched.Decision
}

// execWorkers is one executor's persistent worker pool: CoresPerExecutor
// goroutines fed by a bounded ring queue. The pool replaces
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
func newExecWorkers(exec, cores, depth int) *execWorkers {
	w := &execWorkers{exec: exec, ring: make([]launchReq, depth)}
	w.cond = sync.NewCond(&w.mu)
	for c := 0; c < cores; c++ {
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

// stageState tracks one stage execution under the dispatcher lock.
//
// Accounting contract (the invariants the retry/speculation audit
// fixed): remaining decrements exactly once per task, strictly together
// with setting done; failures counts real failed attempts (not launch
// indices), so a failed speculative copy cannot exhaust a task's budget
// while a healthy sibling runs; retries never holds a task twice
// (queued), and a task is only requeued when it has no live attempt
// left; the stage exits when all tasks are done, or on failure once
// in-flight attempts drain (inFlight) — even if tasks were never
// launched.
//
// Dispatch is completion-driven: a finishing attempt re-offers the
// freed slot inline (dispatchLocked) and the driver goroutine in
// RunStage is only woken on terminal transitions (wakeDriverLocked), so
// routine completions do not bounce through a cond-broadcast and a
// driver wakeup per task.
type stageState struct {
	rt      *Runtime
	stageID int
	name    string
	policy  sched.Policy
	// breadthFirst makes dispatch sweep executors one core at a time
	// (set when the policy implements sched.BreadthFirstOfferer).
	breadthFirst bool
	tasks        []TaskSpec
	attempts     []int

	mu            sync.Mutex
	cond          *sync.Cond
	idle          []int // free cores per executor (0 forever once dead)
	retries       []int // failed or speculated tasks awaiting a launch
	queued        []bool
	failures      []int
	liveOn        [][]int // executors currently running each task
	remaining     int
	inFlight      int
	pendingTimers int // policy retry-hint timers outstanding
	failed        error
	finished      bool
	start         time.Time

	// speculation state
	done       []bool
	running    map[int]time.Time // task -> earliest live launch
	speculated map[int]bool
	// completedDurs is kept sorted (binary-search insertion on every
	// completion) so each speculation scan reads the median directly
	// instead of copying and sorting the slice.
	completedDurs []float64
	speculations  int
}

// now returns seconds since stage start (the policy clock).
func (st *stageState) now() float64 { return time.Since(st.start).Seconds() }

// RunStage executes tasks to completion and returns the first fatal
// error. Tasks that error or panic are retried (on any executor) until
// MaxTaskFailures real failures are spent; exhausting the budget fails
// the stage after in-flight tasks drain. Attempts lost to executor
// failure do not count against the budget — the task is requeued on the
// surviving executors.
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
		rt:         rt,
		stageID:    stageID,
		name:       name,
		policy:     rt.cfg.newPolicy(),
		tasks:      tasks,
		attempts:   make([]int, len(tasks)),
		idle:       make([]int, rt.cfg.Executors),
		queued:     make([]bool, len(tasks)),
		failures:   make([]int, len(tasks)),
		liveOn:     make([][]int, len(tasks)),
		remaining:  len(tasks),
		start:      time.Now(),
		done:       make([]bool, len(tasks)),
		running:    make(map[int]time.Time),
		speculated: make(map[int]bool),
	}
	if bf, ok := st.policy.(sched.BreadthFirstOfferer); ok {
		st.breadthFirst = bf.BreadthFirstOffers()
	}
	st.cond = sync.NewCond(&st.mu)
	// One contiguous backing array serves every task's first (and almost
	// always only) live-attempt record; speculation's second attempt is
	// the rare case that grows past cap 1 and reallocates.
	liveBack := make([]int, len(tasks))
	for i := range st.liveOn {
		st.liveOn[i] = liveBack[i : i : i+1]
	}
	for i := range st.idle {
		if !rt.ExecutorDead(i) {
			st.idle[i] = rt.cfg.CoresPerExecutor
		}
	}
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
	st.policy.StageStart(infos, st.now())
	stageStart := time.Now()
	if rt.AliveExecutors() == 0 {
		st.failed = ErrAllExecutorsLost
	}
	st.dispatchLocked()
	for st.remaining > 0 && (st.failed == nil || st.inFlight > 0) {
		st.cond.Wait()
		if st.remaining > 0 && st.failed == nil {
			st.dispatchLocked()
		}
	}
	st.finished = true
	err := st.failed
	specs := st.speculations
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

// requeueLocked ensures a task will run again, unless it is already
// done, already queued, or still has a live attempt that may yet
// succeed (in which case that attempt's own completion decides).
func (st *stageState) requeueLocked(id int) {
	if st.done[id] || st.queued[id] || len(st.liveOn[id]) > 0 {
		return
	}
	st.queued[id] = true
	st.retries = append(st.retries, id)
	delete(st.running, id)
}

// removeLiveLocked drops one live-attempt record of task id on exec;
// absent records (already dropped by executorLost) are tolerated.
func (st *stageState) removeLiveLocked(id, exec int) {
	live := st.liveOn[id]
	for i, e := range live {
		if e == exec {
			st.liveOn[id] = append(live[:i], live[i+1:]...)
			return
		}
	}
}

// executorLost reacts to an executor failure while the stage runs:
// its slots are withdrawn, tasks whose only live attempts were on it
// are requeued, and the stage fails outright if no executor survives.
func (st *stageState) executorLost(exec int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished || exec < 0 || exec >= len(st.idle) {
		return
	}
	st.idle[exec] = 0
	for id := range st.tasks {
		if st.done[id] {
			continue
		}
		live := st.liveOn[id][:0]
		lostAttempt := false
		for _, e := range st.liveOn[id] {
			if e == exec {
				lostAttempt = true
			} else {
				live = append(live, e)
			}
		}
		st.liveOn[id] = live
		if lostAttempt && len(live) == 0 {
			st.rt.auditFault("requeue", exec, float64(id),
				fmt.Sprintf("stage=%s task=%d lost with executor", st.name, id))
			st.requeueLocked(id)
		}
	}
	if st.rt.AliveExecutors() == 0 && st.failed == nil {
		st.failed = ErrAllExecutorsLost
	}
	if st.failed == nil {
		st.dispatchLocked()
	}
	st.cond.Broadcast()
}

// dispatchLocked offers every free slot to the policy. Called with
// st.mu held.
func (st *stageState) dispatchLocked() {
	if st.failed != nil {
		return
	}
	for pass := 0; ; pass++ {
		// Retried and speculated tasks run before fresh offers; entries
		// whose task has meanwhile completed are dropped. Each goes to
		// the executor with the most idle cores so a retry burst spreads
		// across the cluster instead of piling onto executor 0.
		for len(st.retries) > 0 {
			id := st.retries[0]
			if st.done[id] {
				st.retries = st.retries[1:]
				st.queued[id] = false
				continue
			}
			best := -1
			for exec := range st.idle {
				if st.idle[exec] > 0 && (best < 0 || st.idle[exec] > st.idle[best]) {
					best = exec
				}
			}
			if best < 0 {
				return // all slots busy
			}
			st.retries = st.retries[1:]
			st.queued[id] = false
			st.idle[best]--
			st.inFlight++
			st.rt.launchAttempt(st, sched.Decision{TaskID: id, Local: false}, best)
		}
		if st.breadthFirst {
			// Round-robin sweep: one core per executor per pass, so every
			// executor is offered a slot before any executor's second
			// core can steal (popAny) a task preferring a node not yet
			// offered. Declines are sticky within one dispatch round —
			// the queue only shrinks and pause state only changes on
			// completions, so a declined executor stays declined.
			declined := make([]bool, len(st.idle))
			for {
				progressed := false
				for exec := range st.idle {
					if st.idle[exec] == 0 || declined[exec] {
						continue
					}
					d := st.policy.Offer(exec, st.now())
					if d.TaskID < 0 {
						if d.Retry > 0 {
							st.scheduleRetry(d.Retry)
						}
						declined[exec] = true
						continue
					}
					if st.done[d.TaskID] {
						progressed = true
						continue
					}
					st.idle[exec]--
					st.inFlight++
					progressed = true
					st.rt.launchAttempt(st, d, exec)
				}
				if !progressed {
					break
				}
			}
		} else {
			for exec := range st.idle {
				for st.idle[exec] > 0 {
					d := st.policy.Offer(exec, st.now())
					if d.TaskID < 0 {
						if d.Retry > 0 {
							st.scheduleRetry(d.Retry)
						}
						break
					}
					if st.done[d.TaskID] {
						// The policy re-issued a task the stage already
						// force-dispatched; drop the stale assignment.
						continue
					}
					st.idle[exec]--
					st.inFlight++
					st.rt.launchAttempt(st, d, exec)
				}
			}
		}
		// Wedge breaker: nothing is running, nothing is queued, no
		// retry timer is armed, yet tasks remain — the policy has
		// stranded them (e.g. tasks pinned to a crashed executor, or a
		// load balancer pausing every surviving node with no completion
		// left to resume it). Force the stranded tasks through the
		// retry queue so the stage always either progresses or fails.
		if pass == 0 && st.inFlight == 0 && st.remaining > 0 &&
			len(st.retries) == 0 && st.pendingTimers == 0 {
			forced := 0
			for id := range st.tasks {
				if !st.done[id] && !st.queued[id] && len(st.liveOn[id]) == 0 {
					st.requeueLocked(id)
					forced++
				}
			}
			if forced > 0 {
				st.rt.auditFault("force-dispatch", -1, float64(forced),
					fmt.Sprintf("stage=%s stranded tasks forced past the policy", st.name))
				continue
			}
		}
		return
	}
}

// wakeDriverLocked wakes the RunStage driver only when its wait
// condition can actually flip: all tasks settled, or a failed stage's
// in-flight attempts fully drained. Routine completions skip the wakeup
// (the completing worker has already re-dispatched inline).
func (st *stageState) wakeDriverLocked() {
	if st.remaining == 0 || (st.failed != nil && st.inFlight == 0) {
		st.cond.Broadcast()
	}
}

// scheduleRetry wakes the dispatcher after the policy-requested wait.
func (st *stageState) scheduleRetry(after float64) {
	st.pendingTimers++
	time.AfterFunc(time.Duration(after*float64(time.Second))+time.Millisecond, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		st.pendingTimers--
		if st.remaining > 0 && st.failed == nil {
			st.dispatchLocked()
			st.cond.Broadcast()
		}
	})
}

// scheduleSpeculationCheck arms the periodic straggler scan.
func (st *stageState) scheduleSpeculationCheck() {
	interval := time.Duration(st.rt.cfg.SpeculationIntervalSeconds * float64(time.Second))
	time.AfterFunc(interval, func() {
		st.mu.Lock()
		if st.finished || st.remaining == 0 || st.failed != nil {
			st.mu.Unlock()
			return
		}
		st.speculateLocked()
		st.dispatchLocked()
		st.cond.Broadcast()
		st.mu.Unlock()
		st.scheduleSpeculationCheck()
	})
}

// scheduleFaultCheck arms the periodic time-based crash-trigger poll.
func (st *stageState) scheduleFaultCheck() {
	interval := time.Duration(st.rt.cfg.FaultCheckIntervalSeconds * float64(time.Second))
	time.AfterFunc(interval, func() {
		st.mu.Lock()
		fin := st.finished || st.remaining == 0
		st.mu.Unlock()
		if fin {
			return
		}
		st.rt.checkTimeCrashes()
		st.scheduleFaultCheck()
	})
}

// recordCompletedDurLocked inserts one completed duration keeping
// completedDurs sorted, so speculation scans are O(1) median reads
// instead of re-copying and re-sorting per scan.
func (st *stageState) recordCompletedDurLocked(dur float64) {
	i := sort.SearchFloat64s(st.completedDurs, dur)
	st.completedDurs = append(st.completedDurs, 0)
	copy(st.completedDurs[i+1:], st.completedDurs[i:])
	st.completedDurs[i] = dur
}

// speculateLocked queues second copies of straggling tasks. Called with
// st.mu held; completedDurs is already sorted.
func (st *stageState) speculateLocked() {
	total := len(st.tasks)
	if float64(len(st.completedDurs)) < st.rt.cfg.SpeculationQuantile*float64(total) {
		return
	}
	threshold := st.completedDurs[len(st.completedDurs)/2] * st.rt.cfg.SpeculationMultiplier
	now := time.Now()
	for id, since := range st.running {
		if st.done[id] || st.speculated[id] || st.queued[id] {
			continue
		}
		if now.Sub(since).Seconds() > threshold {
			st.speculated[id] = true
			st.speculations++
			// Deliberately duplicates a live task: queued is set so the
			// duplicate cannot itself be duplicated before launching.
			st.queued[id] = true
			st.retries = append(st.retries, id)
		}
	}
}

// runTask executes one attempt on an executor worker (or an overflow
// goroutine when the worker queue was saturated). scratch, when non-nil,
// is the worker's reusable TaskContext; nil allocates a fresh one.
func (st *stageState) runTask(d sched.Decision, exec int, scratch *TaskContext) {
	if d.Delay > 0 {
		time.Sleep(time.Duration(d.Delay * float64(time.Second)))
	}
	rt := st.rt
	inj := rt.cfg.Faults

	st.mu.Lock()
	if st.done[d.TaskID] || rt.ExecutorDead(exec) {
		// Launch aborted: the task already completed, or the executor
		// died between dispatch and launch. A failed stage does NOT
		// abort here — dispatched attempts drain normally.
		if !rt.ExecutorDead(exec) {
			st.idle[exec]++
		}
		st.inFlight--
		if !st.done[d.TaskID] && st.failed == nil {
			st.requeueLocked(d.TaskID)
		}
		if st.failed == nil {
			st.dispatchLocked()
		}
		st.wakeDriverLocked()
		st.mu.Unlock()
		return
	}
	attempt := st.attempts[d.TaskID]
	st.attempts[d.TaskID]++
	st.liveOn[d.TaskID] = append(st.liveOn[d.TaskID], exec)
	if _, live := st.running[d.TaskID]; !live {
		st.running[d.TaskID] = time.Now()
	}
	st.mu.Unlock()

	if inj != nil {
		if hd := inj.HangDuration(exec, rt.elapsed()); hd > 0 {
			rt.auditFault("hang", exec, hd,
				fmt.Sprintf("stage=%s task=%d attempt=%d", st.name, d.TaskID, attempt))
			time.Sleep(time.Duration(hd * float64(time.Second)))
		}
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
		if err = inj.TaskFailure(exec, d.TaskID, rt.elapsed()); err != nil {
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
	})

	st.mu.Lock()
	lost := rt.ExecutorDead(exec) // died while the attempt ran
	st.removeLiveLocked(d.TaskID, exec)
	st.inFlight--
	if !lost {
		st.idle[exec]++
	}
	if st.done[d.TaskID] {
		// A sibling attempt already settled this task; discard.
		if st.failed == nil {
			st.dispatchLocked()
		}
		st.wakeDriverLocked()
		st.mu.Unlock()
		return
	}
	if lost {
		// The attempt went down with its executor: that is a loss, not
		// a failure — it does not burn the task's retry budget.
		rt.auditFault("task-lost", exec, float64(d.TaskID),
			fmt.Sprintf("stage=%s attempt=%d discarded", st.name, attempt))
		st.requeueLocked(d.TaskID)
		if st.failed == nil {
			st.dispatchLocked()
		}
		st.wakeDriverLocked()
		st.mu.Unlock()
		return
	}
	st.policy.Completed(d.TaskID, exec, st.now(), sched.TaskStats{
		Duration:          dur,
		IntermediateBytes: tc.shuffleBytes,
	})
	rt.metrics.recordTask(dur, tc.shuffleBytes, tc.shuffleRecords, d.Local, err != nil)
	success := err == nil
	switch {
	case success:
		st.done[d.TaskID] = true
		delete(st.running, d.TaskID)
		st.recordCompletedDurLocked(dur)
		st.remaining--
	default:
		st.failures[d.TaskID]++
		if st.failures[d.TaskID] >= rt.cfg.MaxTaskFailures {
			if st.failed == nil {
				st.failed = fmt.Errorf("task %d failed after %d attempts: %w",
					d.TaskID, st.failures[d.TaskID], err)
			}
			st.done[d.TaskID] = true
			delete(st.running, d.TaskID)
			st.remaining-- // give up on this task; drain the rest
		} else {
			// Requeue unless a live sibling attempt may still succeed;
			// if that sibling fails too, its completion requeues.
			st.requeueLocked(d.TaskID)
		}
	}
	if st.failed == nil {
		st.dispatchLocked()
	}
	st.wakeDriverLocked()
	st.mu.Unlock()

	// Count-based crash triggers fire on successful completions, after
	// the stage lock is released (FailExecutor re-enters stage state).
	if inj != nil && success {
		for _, e := range inj.TaskCompleted(rt.elapsed()) {
			rt.FailExecutor(e)
		}
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
