package sched

import (
	"fmt"
	"slices"
	"sort"
)

const (
	// DefaultMaxFailures is how many failed attempts a task absorbs
	// before its stage fails (Spark's spark.task.maxFailures).
	DefaultMaxFailures = 4
	// Speculation starts once speculationQuantile of a stage's tasks have
	// completed; a task running longer than speculationMultiplier times
	// the median completed duration then gets a second copy.
	speculationQuantile   = 0.75
	speculationMultiplier = 1.5
)

// Outcome is how an attempt ended: Success settles its task, Failure
// spends one unit of the task's failure budget, and Loss — the attempt
// went down with its node — runs the task again without touching it.
type Outcome int

const (
	Success Outcome = iota
	Failure
	Loss
)

// Injector is the part of a fault plan a stage decides (satisfied by
// *fault.Injector): each launch's hang, each attempt's injected failure
// and the count-triggered crashes a successful completion fires.
type Injector interface {
	// HangDuration returns the seconds a newly launched attempt stalls.
	HangDuration(node int, now float64) float64
	// TaskFailure returns an injected error for an attempt, or nil.
	TaskFailure(node, task int, now float64) error
	// TaskCompleted counts a successful completion and returns the nodes
	// it crashes.
	TaskCompleted(now float64) []int
}

// StageConfig parameterizes one stage's dispatcher.
type StageConfig struct {
	Name   string // labels the stage in audit details
	Policy Policy
	// Slots is each node's run slots at stage start, 0 for a dead node.
	Slots []int
	// Window is the window slots each live node has past its run slots,
	// filled through OfferLocal; none unless the policy is a LocalOfferer.
	Window      int
	MaxFailures int  // failed attempts a task absorbs before the stage fails
	Speculate   bool // lets Speculate queue copies of stragglers
	// Launch receives every launch decision: run d.TaskID on node. Its
	// attempt reports back through Started, then Finished.
	Launch func(d Decision, node int)
	// Timer asks for a Tick after the given seconds (a retry hint).
	Timer func(after float64)
	// Faults is the backend's fault plan, nil without one. The stage
	// takes every hang (Started), injected failure (InjectedFailure) and
	// count-triggered crash (Finished) from it, on the caller's now,
	// which must then be the injector's clock.
	Faults Injector
	// Audit receives "task-lost" (an attempt went down with its node)
	// and "force-dispatch" (stranded tasks forced past the policy) under
	// Policy "fault".
	Audit AuditFunc
}

// Stage is one stage's dispatcher: the master's loop over slot offers,
// free of any clock. Both runtimes drive it — the simulator from its
// event kernel, the engine under a mutex from worker goroutines and
// timers — and every input carries the caller's now. It decides every
// launch, requeue, stage failure and task-level fault (a launch's hang,
// an attempt's injected failure, the crashes a completion triggers); the
// caller carries out what it decides.
//
// An attempt is live from its launch until it finishes or its node is
// lost. A lost node's attempts become zombies: their tasks are requeued
// at once, and their late reports only release their in-flight count.
// A task is requeued only when it has no live attempt left, so a failed
// speculative copy never duplicates a healthy sibling; remaining drops
// exactly once per task, when the task is done or gives up.
//
// The order of one offer pass (Dispatch): retries — failed, lost,
// forced or speculated tasks — go first, each to the node with the most
// free run slots (lowest ID on ties), past the policy, which already
// placed them once. Then every node is offered one run slot per
// round-robin sweep through the policy's Offer, until each has declined
// or filled; a decline is sticky for the rest of the sweep, since the
// queue only shrinks and pause state only changes on completions. Window
// slots are swept the same way through OfferLocal, after every run slot.
// A decline's retry hint asks for a timer only when it falls before the
// one the stage holds; the pass that timer runs asks again for any later
// hint still wanted. If the pass leaves nothing running, queued or
// timed, yet tasks remain, the policy has stranded them (pinned to a dead
// node, or paused with no completion left to resume it): they are forced
// into the retry queue and the pass runs once more.
type Stage struct {
	cfg    StageConfig
	local  LocalOfferer // fills window slots; nil without them
	window int

	idle     []int  // free slots per node, 0 once lost
	declined []bool // a sweep's per-node scratch
	retries  []int  // tasks owed a launch past the policy, FIFO
	queued   []bool // task has an entry in retries
	done     []bool
	failures []int
	injected []int   // injected failures absorbed per task; nil without Faults
	starts   []int   // attempts started per task
	liveOn   [][]int // nodes of each task's live attempts

	remaining, inFlight int
	err                 error
	timed               bool    // the stage holds a timer,
	timerAt             float64 // due then

	// Speculation state; nil unless cfg.Speculate.
	since        []float64 // earliest start of a task's live attempts, -1 when none
	speculated   []bool
	durs         []float64 // completed durations, kept sorted
	speculations int
}

// NewStage builds the dispatcher for a stage of n tasks, IDs 0..n-1.
func NewStage(cfg StageConfig, n int) *Stage {
	s := &Stage{
		cfg:       cfg,
		idle:      make([]int, len(cfg.Slots)),
		declined:  make([]bool, len(cfg.Slots)),
		queued:    make([]bool, n),
		done:      make([]bool, n),
		failures:  make([]int, n),
		starts:    make([]int, n),
		liveOn:    make([][]int, n),
		remaining: n,
	}
	if lo, ok := cfg.Policy.(LocalOfferer); ok && cfg.Window > 0 {
		s.local, s.window = lo, cfg.Window
	}
	for i, slots := range cfg.Slots {
		if slots > 0 {
			s.idle[i] = slots + s.window
		}
	}
	// One backing array holds every task's first live attempt; only a
	// speculative second copy grows past it.
	back := make([]int, n)
	for i := range s.liveOn {
		s.liveOn[i] = back[i : i : i+1]
	}
	if cfg.Faults != nil {
		s.injected = make([]int, n)
	}
	if cfg.Speculate {
		s.since = make([]float64, n)
		for i := range s.since {
			s.since[i] = -1
		}
		s.speculated = make([]bool, n)
		s.durs = make([]float64, 0, n)
	}
	return s
}

// Start hands the tasks to the policy and runs the first offer pass.
func (s *Stage) Start(tasks []TaskInfo, now float64) {
	s.cfg.Policy.StageStart(tasks, now)
	s.Dispatch(now)
}

// Remaining is the number of tasks not yet settled.
func (s *Stage) Remaining() int { return s.remaining }

// Err is the stage's failure, or nil.
func (s *Stage) Err() error { return s.err }

// Speculations is how many speculative copies the stage queued.
func (s *Stage) Speculations() int { return s.speculations }

// Settled reports that every task is settled, or that the stage failed
// and every launched attempt has reported back.
func (s *Stage) Settled() bool { return s.remaining == 0 || s.err != nil && s.inFlight == 0 }

// Abort fails the stage with err (the first error wins); attempts in
// flight still report back, but nothing launches any more.
func (s *Stage) Abort(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Dispatch runs one offer pass over every free slot (see Stage).
func (s *Stage) Dispatch(now float64) {
	for pass := 0; s.err == nil && s.remaining > 0; pass++ {
		s.drainRetries()
		s.sweep(now, false)
		if s.local != nil {
			s.sweep(now, true)
		}
		if pass > 0 || !s.forceStranded() {
			return
		}
	}
}

// drainRetries launches queued tasks, each on the node with the most
// free run slots, until the queue or the run slots run out.
func (s *Stage) drainRetries() {
	for len(s.retries) > 0 {
		id := s.retries[0]
		if s.done[id] || !s.queued[id] {
			// Settled meanwhile, or a policy launch took the entry.
			s.retries = s.retries[1:]
			s.queued[id] = false
			continue
		}
		best := -1
		for n, free := range s.idle {
			if free > s.window && (best < 0 || free > s.idle[best]) {
				best = n
			}
		}
		if best < 0 {
			return
		}
		s.retries = s.retries[1:]
		s.queued[id] = false
		s.launch(Decision{TaskID: id}, best)
	}
}

// sweep offers free slots round-robin, one per node per round, until
// every node has declined or filled: run slots through Offer, or, with
// window set, window slots through OfferLocal.
func (s *Stage) sweep(now float64, window bool) {
	floor := s.window // a run slot is free while idle exceeds it
	if window {
		floor = 0
	}
	clear(s.declined)
	for progressed := true; progressed; {
		progressed = false
		for n := range s.idle {
			if s.idle[n] <= floor || s.declined[n] {
				continue
			}
			var d Decision
			if window {
				d = s.local.OfferLocal(n, now)
			} else {
				d = s.cfg.Policy.Offer(n, now)
			}
			if d.TaskID < 0 {
				if d.Retry > 0 {
					s.retryAfter(now, d.Retry)
				}
				s.declined[n] = true
				continue
			}
			progressed = true
			if s.done[d.TaskID] || len(s.liveOn[d.TaskID]) > 0 {
				// The policy re-issued a task forced past it, which has
				// settled or is running.
				continue
			}
			s.queued[d.TaskID] = false
			s.launch(d, n)
		}
	}
}

// retryAfter asks for a Tick after the given seconds, unless the stage
// already holds a timer due no later.
func (s *Stage) retryAfter(now, after float64) {
	if at := now + after; !s.timed || at < s.timerAt {
		s.timed, s.timerAt = true, at
		s.cfg.Timer(after)
	}
}

// forceStranded breaks a wedge: when nothing is running, queued or
// timed, yet tasks remain, every task without a live attempt is forced
// into the retry queue. It reports whether it forced any.
func (s *Stage) forceStranded() bool {
	if s.inFlight > 0 || len(s.retries) > 0 || s.timed {
		return false
	}
	forced := 0
	for id := range s.done {
		if !s.done[id] && !s.queued[id] && len(s.liveOn[id]) == 0 {
			s.requeue(id)
			forced++
		}
	}
	if forced > 0 {
		s.cfg.Audit.emit(AuditEvent{Policy: "fault", Kind: "force-dispatch", Node: -1, Value: float64(forced),
			Detail: fmt.Sprintf("stage=%s stranded tasks forced past the policy", s.cfg.Name)})
	}
	return forced > 0
}

func (s *Stage) launch(d Decision, node int) {
	s.idle[node]--
	s.inFlight++
	s.liveOn[d.TaskID] = append(s.liveOn[d.TaskID], node)
	s.cfg.Launch(d, node)
}

// requeue owes a task a launch, unless it is settled, already owed one,
// or still has a live attempt that may yet succeed.
func (s *Stage) requeue(id int) {
	if s.done[id] || s.queued[id] || len(s.liveOn[id]) > 0 {
		return
	}
	s.queued[id] = true
	s.retries = append(s.retries, id)
	if s.since != nil {
		s.since[id] = -1
	}
}

// dropLive removes one live attempt of task on node; false means there
// was none (the node's loss already discarded it).
func (s *Stage) dropLive(task, node int) bool {
	live := s.liveOn[task]
	for i, n := range live {
		if n == node {
			s.liveOn[task] = append(live[:i], live[i+1:]...)
			return true
		}
	}
	return false
}

func (s *Stage) lost(task, node int) {
	s.cfg.Audit.emit(AuditEvent{Policy: "fault", Kind: "task-lost", Node: node, Value: float64(task),
		Detail: fmt.Sprintf("stage=%s task=%d lost with its node", s.cfg.Name, task)})
	s.requeue(task)
}

// Started reports that an attempt launched on node begins to run,
// numbers it among its task's attempts from 0, and returns the seconds
// the plan stalls it before its body. ok=false means it must not run: a
// sibling settled its task (its slot is freed), or its node was lost (a
// zombie). Either way the attempt is over.
func (s *Stage) Started(task, node int, now float64) (attempt int, hang float64, ok bool) {
	if !s.done[task] && slices.Contains(s.liveOn[task], node) {
		if s.since != nil && s.since[task] < 0 {
			s.since[task] = now
		}
		s.starts[task]++
		if s.cfg.Faults != nil {
			hang = s.cfg.Faults.HangDuration(node, now)
		}
		return s.starts[task] - 1, hang, true
	}
	s.inFlight--
	if s.dropLive(task, node) {
		s.idle[node]++
	}
	return 0, 0, false
}

// InjectedFailure is the plan's verdict on an attempt whose body is about
// to run: the error to fail it with, or nil, and how many injected
// failures its task has absorbed. A task absorbs at most MaxFailures-1,
// so a plan degrades a stage and never fails it.
func (s *Stage) InjectedFailure(task, node int, now float64) (int, error) {
	if s.injected == nil || s.injected[task] >= s.cfg.MaxFailures-1 {
		return 0, nil
	}
	err := s.cfg.Faults.TaskFailure(node, task, now)
	if err != nil {
		s.injected[task]++
	}
	return s.injected[task], err
}

// Finished reports an attempt's end. It returns whether the attempt
// counted — reached the policy as a success or a failure — rather than
// being a zombie, a loss, or the loser to a sibling, and, for a counted
// success, the nodes whose count-triggered crash it fires. The caller
// crashes them before the stage's next offer pass.
func (s *Stage) Finished(task, node int, now float64, out Outcome, stats TaskStats, err error) (counted bool, crashed []int) {
	s.inFlight--
	if !s.dropLive(task, node) {
		return false, nil
	}
	if out != Loss {
		s.idle[node]++
	}
	if s.done[task] {
		return false, nil
	}
	if out == Loss {
		s.lost(task, node)
		return false, nil
	}
	s.cfg.Policy.Completed(task, node, now, stats)
	if out == Failure {
		if s.failures[task]++; s.failures[task] < s.cfg.MaxFailures {
			s.requeue(task)
			return true, nil
		}
		s.Abort(fmt.Errorf("task %d failed after %d attempts: %w", task, s.failures[task], err))
	} else {
		if s.durs != nil {
			i := sort.SearchFloat64s(s.durs, stats.Duration)
			s.durs = slices.Insert(s.durs, i, stats.Duration)
		}
		if s.cfg.Faults != nil {
			crashed = s.cfg.Faults.TaskCompleted(now)
		}
	}
	s.done[task] = true
	s.remaining--
	if s.since != nil {
		s.since[task] = -1
	}
	return true, crashed
}

// NodeLost withdraws a node's slots and turns its live attempts into
// zombies, requeueing their tasks in task order.
func (s *Stage) NodeLost(node int) {
	s.idle[node] = 0
	for id := range s.liveOn {
		lost := false
		for s.dropLive(id, node) {
			lost = true
		}
		if lost && !s.done[id] {
			s.lost(id, node)
		}
	}
}

// Tick answers a Timer request with a full offer pass. The tick of a
// timer the stage no longer holds — an earlier hint superseded it — only
// runs the pass.
func (s *Stage) Tick(now float64) {
	if s.timed && now >= s.timerAt {
		s.timed = false
	}
	s.Dispatch(now)
}

// Speculate queues a second copy of every task whose live attempt has
// run longer than speculationMultiplier times the median completed
// duration, once speculationQuantile of the tasks have completed, then
// runs an offer pass. A no-op unless the stage speculates.
func (s *Stage) Speculate(now float64) {
	if s.since == nil || float64(len(s.durs)) < speculationQuantile*float64(len(s.done)) {
		return
	}
	threshold := s.durs[len(s.durs)/2] * speculationMultiplier
	for id, since := range s.since {
		if since < 0 || s.speculated[id] || s.queued[id] || now-since <= threshold {
			continue
		}
		s.speculated[id] = true
		s.speculations++
		// Deliberately owes a live task a launch: queued, so the copy
		// cannot itself be copied before it launches.
		s.queued[id] = true
		s.retries = append(s.retries, id)
	}
	s.Dispatch(now)
}
