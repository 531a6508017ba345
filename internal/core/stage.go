package core

import (
	"fmt"

	"hpcmr/internal/cluster"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/trace"
)

// taskExec runs one task's body on a node. launch is the task's start
// time (after dispatch); the body must eventually call done exactly once
// with the task's stats.
type taskExec func(id, node int, launch float64, done func(stats sched.TaskStats))

// maxInjectedTaskFails bounds how many injected task-fail events one
// task absorbs before it is allowed to run anyway — fault plans must
// degrade a simulated job, never wedge it.
const maxInjectedTaskFails = 3

// stageRunner drives one stage: it offers free core slots to the policy,
// dispatches assigned tasks through the centralized master, executes
// their bodies, and records a timeline.
//
// Under fault injection it additionally tracks, per task, the node of
// the current live attempt and a launch sequence number: when a node
// crashes, its live attempts are invalidated (the sequence bump turns
// their eventual completion events into ignored zombies) and the tasks
// requeued on the survivors, in task-index order so replays stay
// deterministic. Only the final successful run of a task reaches the
// timeline and the tracer.
type stageRunner struct {
	c        *cluster.Cluster
	eng      *Engine
	tr       *trace.Tracer
	name     string
	policy   sched.Policy
	exec     taskExec
	timeline *metrics.Timeline
	onDone   func()

	remaining int
	active    bool
	local     int
	remote    int

	tasks         []sched.TaskInfo
	done          []bool
	assigned      []int // task -> node of the live attempt (-1 = none)
	seq           []int // launch sequence per task (zombie guard)
	failCnt       []int // injected failures absorbed per task
	retries       []int // tasks awaiting a relaunch
	queued        []bool
	inFlight      int
	pendingTimers int // policy retry-hint timers outstanding
}

// runStage executes tasks under policy and calls onDone(timeline,
// localLaunches, remoteLaunches) when the last task completes. Stages
// with no tasks complete on the next event. A non-nil tracer receives
// one task span per completion and a stage span at the end; name
// labels them ("map/0", "store/0", ...).
func runStage(e *Engine, name string, policy sched.Policy, tasks []sched.TaskInfo, exec taskExec,
	onDone func(tl *metrics.Timeline, local, remote int)) {
	c := e.C
	tl := &metrics.Timeline{}
	if len(tasks) == 0 {
		c.Sim.After(0, func() { onDone(tl, 0, 0) })
		return
	}
	r := &stageRunner{
		c:         c,
		eng:       e,
		tr:        e.Tracer,
		name:      name,
		policy:    policy,
		exec:      exec,
		timeline:  tl,
		remaining: len(tasks),
		active:    true,
		tasks:     tasks,
		done:      make([]bool, len(tasks)),
		assigned:  make([]int, len(tasks)),
		seq:       make([]int, len(tasks)),
		failCnt:   make([]int, len(tasks)),
		queued:    make([]bool, len(tasks)),
	}
	for i := range r.assigned {
		r.assigned[i] = -1
	}
	start := c.Sim.Now()
	r.onDone = func() {
		r.active = false
		e.stageDone(r)
		r.tr.StageSpan(r.name, len(tasks), start, r.c.Sim.Now()-start)
		onDone(r.timeline, r.local, r.remote)
	}
	e.stageStarted(r)
	policy.StageStart(tasks, start)
	r.offerAll()
}

// offerAll drives rounds of single-slot offers across all nodes, so a
// stage smaller than the cluster's slot count spreads over nodes (as
// Spark's per-executor resource offers do) instead of packing the first
// nodes' cores. Crashed nodes are skipped; if a full round leaves the
// stage with nothing running, nothing queued, and no retry timer armed,
// the stranded tasks are forced past the policy (see forceStranded).
func (r *stageRunner) offerAll() {
	r.drainRetries()
	for {
		progress := false
		for _, n := range r.c.Nodes {
			if !r.active {
				return
			}
			if n.Alive() && n.IdleCores() > 0 && r.offerOne(n) {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	r.forceStranded()
}

// drainRetries relaunches requeued tasks, each on the alive node with
// the most idle cores (lowest ID on ties — determinism matters for
// replay), bypassing the policy: the policy already spent its placement
// decision on the first launch.
func (r *stageRunner) drainRetries() {
	for r.active && len(r.retries) > 0 {
		id := r.retries[0]
		if r.done[id] {
			r.retries = r.retries[1:]
			r.queued[id] = false
			continue
		}
		var best *cluster.Node
		for _, n := range r.c.Nodes {
			if n.Alive() && n.IdleCores() > 0 && (best == nil || n.IdleCores() > best.IdleCores()) {
				best = n
			}
		}
		if best == nil {
			return // no free alive slot; retried on the next completion
		}
		r.retries = r.retries[1:]
		r.queued[id] = false
		best.AcquireCore()
		r.remote++
		r.launch(sched.Decision{TaskID: id, Local: false}, best)
	}
}

// forceStranded breaks a scheduler wedge after node loss: policies that
// pin tasks to nodes (Pinned stores) or cap per-node quotas (Spread
// fetches) can never offer a task whose home node died. When nothing is
// running, queued, or pending on a timer, yet tasks remain, the
// undispatched tasks are pushed through the retry queue to any survivor.
func (r *stageRunner) forceStranded() {
	if !r.active || r.inFlight > 0 || r.remaining == 0 ||
		len(r.retries) > 0 || r.pendingTimers > 0 {
		return
	}
	forced := 0
	for id := range r.tasks {
		if !r.done[id] && !r.queued[id] && r.assigned[id] < 0 {
			r.queued[id] = true
			r.retries = append(r.retries, id)
			forced++
		}
	}
	if forced == 0 {
		return
	}
	r.tr.InstantEvent(trace.CatFault, "fault:force-dispatch", -1, float64(forced),
		fmt.Sprintf("stage=%s stranded tasks forced past the policy", r.name))
	r.drainRetries()
}

// requeue marks a task for relaunch (idempotent).
func (r *stageRunner) requeue(id int) {
	if r.done[id] || r.queued[id] {
		return
	}
	r.queued[id] = true
	r.retries = append(r.retries, id)
}

// nodeLost reacts to a node crash while the stage runs: live attempts on
// the node are invalidated — their completion events become zombies —
// and their tasks requeued, in task-index order for determinism.
func (r *stageRunner) nodeLost(node int) {
	if !r.active {
		return
	}
	for id := range r.tasks {
		if r.done[id] || r.assigned[id] != node {
			continue
		}
		r.assigned[id] = -1
		r.seq[id]++ // the in-flight attempt's finish is now stale
		r.inFlight--
		r.tr.InstantEvent(trace.CatFault, "fault:task-lost", node, float64(id),
			fmt.Sprintf("stage=%s attempt discarded with node", r.name))
		r.requeue(id)
	}
	r.offerAll()
}

// offer drives one node's idle slots until the policy declines.
func (r *stageRunner) offer(n *cluster.Node) {
	for r.active && n.Alive() && n.IdleCores() > 0 && r.offerOne(n) {
	}
}

// offerOne offers a single slot of n; it reports whether a task
// launched.
func (r *stageRunner) offerOne(n *cluster.Node) bool {
	now := r.c.Sim.Now()
	d := r.policy.Offer(n.ID, now)
	if d.TaskID < 0 {
		if d.Retry > 0 {
			// Clamp below-resolution retries so the simulation always
			// advances past the policy's wait boundary.
			retry := d.Retry
			if retry < 1e-6 {
				retry = 1e-6
			}
			node := n
			r.pendingTimers++
			r.c.Sim.After(retry, func() {
				r.pendingTimers--
				r.offer(node)
				r.forceStranded()
			})
		}
		return false
	}
	if r.done[d.TaskID] {
		// The policy re-issued a task the stage already force-dispatched
		// past it; drop the stale assignment.
		return true
	}
	if d.Local {
		r.local++
	} else {
		r.remote++
	}
	n.AcquireCore()
	r.launch(d, n)
	return true
}

// launch dispatches one assigned task: the centralized master's
// per-task dispatch cost, then fault-injection checks (hang, injected
// failure), then the task body.
func (r *stageRunner) launch(d sched.Decision, n *cluster.Node) {
	r.assigned[d.TaskID] = n.ID
	r.seq[d.TaskID]++
	mySeq := r.seq[d.TaskID]
	r.inFlight++

	r.c.Dispatch(func() {
		if r.seq[d.TaskID] != mySeq || !n.Alive() {
			return // node crashed between dispatch and launch
		}
		inj := r.eng.Faults
		body := func() {
			if r.seq[d.TaskID] != mySeq || !n.Alive() {
				return // node crashed during the injected hang
			}
			if inj != nil && r.failCnt[d.TaskID] < maxInjectedTaskFails {
				if err := inj.TaskFailure(n.ID, d.TaskID, r.c.Sim.Now()); err != nil {
					r.failCnt[d.TaskID]++
					r.tr.InstantEvent(trace.CatFault, "fault:task-fail", n.ID, float64(d.TaskID),
						fmt.Sprintf("stage=%s fail %d: %v", r.name, r.failCnt[d.TaskID], err))
					r.assigned[d.TaskID] = -1
					r.seq[d.TaskID]++
					r.inFlight--
					n.ReleaseCore()
					r.requeue(d.TaskID)
					r.offerAll()
					return
				}
			}
			launch := r.c.Sim.Now()
			r.exec(d.TaskID, n.ID, launch, func(stats sched.TaskStats) {
				r.finish(d, n, launch, mySeq, stats)
			})
		}
		if inj != nil {
			if hd := inj.HangDuration(n.ID, r.c.Sim.Now()); hd > 0 {
				r.tr.InstantEvent(trace.CatFault, "fault:hang", n.ID, hd,
					fmt.Sprintf("stage=%s task=%d stalled", r.name, d.TaskID))
				r.c.Sim.After(hd, body)
				return
			}
		}
		body()
	})
}

// finish records a completed task and re-offers idle slots. Completions
// whose launch sequence is stale are zombies of a crashed node and are
// dropped entirely — no timeline record, no slot release, no policy
// callback.
func (r *stageRunner) finish(d sched.Decision, n *cluster.Node, launch float64, mySeq int, stats sched.TaskStats) {
	if !r.active || r.done[d.TaskID] || r.seq[d.TaskID] != mySeq {
		return
	}
	now := r.c.Sim.Now()
	r.done[d.TaskID] = true
	r.assigned[d.TaskID] = -1
	r.inFlight--
	r.timeline.Add(metrics.TaskRecord{
		ID:     d.TaskID,
		Node:   n.ID,
		Launch: launch,
		Finish: now,
		Bytes:  stats.IntermediateBytes,
		Local:  d.Local,
	})
	if stats.Duration == 0 {
		// Fill in measured duration when the body did not.
		rec := &r.timeline.Records[len(r.timeline.Records)-1]
		stats.Duration = rec.Duration()
	}
	detail := ""
	if d.Local {
		detail = "local"
	}
	r.tr.TaskSpan(r.name, d.TaskID, mySeq-1, n.ID, launch, now-launch, stats.IntermediateBytes, detail)
	n.ReleaseCore()
	r.policy.Completed(d.TaskID, n.ID, now, stats)
	r.remaining--
	// Count-triggered crashes fire on successful completions, before the
	// next dispatch round, so both backends see the same ordering.
	if r.eng.Faults != nil {
		for _, node := range r.eng.Faults.TaskCompleted(now) {
			r.eng.crashNode(node)
		}
	}
	if r.remaining == 0 {
		r.onDone()
		return
	}
	if r.active {
		r.offerAll()
	}
}
